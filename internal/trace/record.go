package trace

import (
	"fmt"
	"math"

	"smtflex/internal/isa"
)

// Packed µop word layout, least significant bit first: the class, the
// branch outcome and prediction bits, both dependency distances, and the PC
// as an offset from the generator's code base. Non-memory µops carry no
// address; memory µops keep theirs in a side array.
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

// Record generates the first n µops of spec's stream under seed: the same
// stream NewGenerator(spec, seed) produces.
func Record(spec Spec, seed uint64, n uint64) (*Recording, error) {
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
	r := &Recording{
		words: make([]uint64, n),
		addrs: make([]uint64, 0, int(want+4*math.Sqrt(want))+64),
	}
	for i := range r.words {
		u := g.Next()
		w := uint64(u.Class) |
			uint64(u.SrcDist[0])<<dist0Shift |
			uint64(u.SrcDist[1])<<dist1Shift |
			(u.PC-g.codeBase)<<pcShift
		if u.Taken {
			w |= 1 << takenShift
		}
		if u.Mispredict {
			w |= 1 << mispShift
		}
		r.words[i] = w
		if u.Class.IsMem() {
			r.addrs = append(r.addrs, u.Addr)
		}
	}
	if cap(r.addrs) != len(r.addrs) {
		r.addrs = append(make([]uint64, 0, len(r.addrs)), r.addrs...)
	}
	r.tail = g
	return r, nil
}

// Len returns the number of recorded µops.
func (r *Recording) Len() int { return len(r.words) }

// Reader returns a reader over the recording. Past the recorded prefix it
// continues with the generator, so a reader of any length sees exactly the
// stream NewGenerator would produce, and Reset restarts it.
func (r *Recording) Reader() Reader { return &replay{rec: r} }

// replay is a Reader over a Recording.
type replay struct {
	rec *Recording
	// next and nextAddr index the next word and the next memory address.
	next, nextAddr int
	// cont continues the stream past the recording; nil until needed.
	cont *Generator
}

// Next implements Reader.
func (p *replay) Next() isa.Uop {
	if p.next < len(p.rec.words) {
		w := p.rec.words[p.next]
		p.next++
		u := isa.Uop{
			Class:      isa.Class(w & classMask),
			Taken:      w>>takenShift&1 != 0,
			Mispredict: w>>mispShift&1 != 0,
			PC:         p.rec.tail.codeBase + w>>pcShift,
		}
		u.SrcDist[0] = int32(w >> dist0Shift & distMask)
		u.SrcDist[1] = int32(w >> dist1Shift & distMask)
		if u.Class.IsMem() {
			u.Addr = p.rec.addrs[p.nextAddr]
			p.nextAddr++
		}
		return u
	}
	if p.cont == nil {
		p.cont = p.rec.tail.clone()
	}
	return p.cont.Next()
}

// Reset implements Reader.
func (p *replay) Reset() { p.next, p.nextAddr, p.cont = 0, 0, nil }

// Count implements Reader.
func (p *replay) Count() uint64 {
	if p.cont != nil {
		return p.cont.Count()
	}
	return uint64(p.next)
}
