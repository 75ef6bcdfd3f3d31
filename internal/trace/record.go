package trace

import (
	"fmt"
	"math"

	"smtflex/internal/isa"
)

// Packed µop word layout, least significant bit first: the class, the
// branch outcome and prediction bits, both dependency distances, and the PC
// as an offset from the code base. Non-memory µops carry no address; memory
// µops keep theirs in a side array.
const (
	classBits   = 4
	distBits    = 10 // holds 0..maxDepDist
	takenShift  = classBits
	mispShift   = takenShift + 1
	dist0Shift  = mispShift + 1
	dist1Shift  = dist0Shift + distBits
	pcShift     = dist1Shift + distBits
	classMask   = 1<<classBits - 1
	distMask    = 1<<distBits - 1
	maxPCOffset = 1<<(64-pcShift) - 1
)

// Recording holds the first µops of one generator's stream, packed into one
// 64-bit word per µop plus one address per memory µop, so the runs that
// measure one profile replay a single trace instead of regenerating it.
// A Recording is immutable and safe for concurrent readers.
type Recording struct {
	words []uint64
	addrs []uint64
	// tail is a generator positioned just past the recorded prefix; readers
	// that run off the end continue from a copy of it.
	tail *Generator
}

// Recorder generates spec's stream and records its first µops on the way,
// so a pass that reads the stream anyway leaves the recording behind
// instead of a second pass regenerating it.
type Recorder struct {
	g   *Generator
	rec *Recording
	// n counts the µops recorded so far.
	n int
}

// NewRecorder returns a Recorder over NewGenerator(spec, seed)'s stream
// that records its first n µops.
func NewRecorder(spec Spec, seed uint64, n uint64) (*Recorder, error) {
	g, err := NewGenerator(spec, seed)
	if err != nil {
		return nil, err
	}
	if uint64(spec.CodeFootprintBytes) > maxPCOffset {
		return nil, fmt.Errorf("%w: spec %s: code footprint %d too large to record", ErrBadTrace, spec.Name, spec.CodeFootprintBytes)
	}
	// Reserve the expected number of memory µops plus four standard
	// deviations, so the address array almost never grows.
	memFrac := spec.Mix[isa.Load] + spec.Mix[isa.Store]
	want := float64(n) * memFrac
	r := &Recorder{g: g, rec: &Recording{
		words: make([]uint64, n),
		addrs: make([]uint64, 0, int(want+4*math.Sqrt(want))+64),
	}}
	if n == 0 {
		r.finish()
	}
	return r, nil
}

// Next returns the stream's next µop, recording it while the prefix is
// short of its length.
func (r *Recorder) Next() isa.Uop {
	u := r.g.Next()
	if r.n < len(r.rec.words) {
		w := uint64(u.Class) |
			uint64(u.SrcDist[0])<<dist0Shift |
			uint64(u.SrcDist[1])<<dist1Shift |
			(u.PC-codeBase)<<pcShift
		if u.Taken {
			w |= 1 << takenShift
		}
		if u.Mispredict {
			w |= 1 << mispShift
		}
		r.rec.words[r.n] = w
		if u.Class.IsMem() {
			r.rec.addrs = append(r.rec.addrs, u.Addr)
		}
		if r.n++; r.n == len(r.rec.words) {
			r.finish()
		}
	}
	return u
}

// finish completes the recording: it trims the address array and gives the
// recording its own generator, positioned just past the prefix.
func (r *Recorder) finish() {
	if a := r.rec.addrs; cap(a) != len(a) {
		r.rec.addrs = append(make([]uint64, 0, len(a)), a...)
	}
	r.rec.tail = r.g.clone()
}

// Recording returns the recording once the Recorder has produced its
// length in µops, and nil before.
func (r *Recorder) Recording() *Recording {
	if r.rec.tail == nil {
		return nil
	}
	return r.rec
}

// Record generates the first n µops of spec's stream under seed: the same
// stream NewGenerator(spec, seed) produces.
func Record(spec Spec, seed uint64, n uint64) (*Recording, error) {
	r, err := NewRecorder(spec, seed, n)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		r.Next()
	}
	return r.Recording(), nil
}

// Len returns the number of recorded µops.
func (r *Recording) Len() int { return len(r.words) }

// Reader returns a reader over the recording. Past the recorded prefix it
// continues with the generator, so a reader of any length sees exactly the
// stream NewGenerator would produce, and Reset restarts it.
func (r *Recording) Reader() *Replay { return &Replay{rec: r} }

// Replay is a Reader over a Recording.
type Replay struct {
	rec *Recording
	// next and nextAddr index the next word and the next memory address.
	next, nextAddr int
	// cont continues the stream past the recording; nil until needed.
	cont *Generator
}

// Decode writes the next µop into u. It is Next for a caller that holds the
// concrete type: a direct call that fills the caller's µop in place rather
// than returning a copy through the Reader interface.
func (p *Replay) Decode(u *isa.Uop) {
	if p.next < len(p.rec.words) {
		w := p.rec.words[p.next]
		p.next++
		// Field by field: a composite literal would be built on the stack
		// and copied over, a second pass through the µop's 40 bytes.
		u.Class = isa.Class(w & classMask)
		u.SrcDist[0] = int32(w >> dist0Shift & distMask)
		u.SrcDist[1] = int32(w >> dist1Shift & distMask)
		u.Taken = w>>takenShift&1 != 0
		u.Mispredict = w>>mispShift&1 != 0
		u.PC = codeBase + w>>pcShift
		u.Addr = 0
		if u.Class.IsMem() {
			u.Addr = p.rec.addrs[p.nextAddr]
			p.nextAddr++
		}
		return
	}
	p.continued(u)
}

// continued is Decode past the recording, kept out of Decode's body so the
// common path stays small.
func (p *Replay) continued(u *isa.Uop) {
	if p.cont == nil {
		p.cont = p.rec.tail.clone()
	}
	*u = p.cont.Next()
}

// Next implements Reader.
func (p *Replay) Next() isa.Uop {
	var u isa.Uop
	p.Decode(&u)
	return u
}

// Reset implements Reader.
func (p *Replay) Reset() { p.next, p.nextAddr, p.cont = 0, 0, nil }

// Count implements Reader.
func (p *Replay) Count() uint64 {
	if p.cont != nil {
		return p.cont.Count()
	}
	return uint64(p.next)
}
