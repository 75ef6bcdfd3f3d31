package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// FuzzCellResponse feeds the coordinator's receive path arbitrary bytes:
// decode as a CellResponse, then verifyIntegrity, as a dispatch or a
// journal replay does. It is seeded with real worker responses, with and
// without the observability envelope. Nothing may panic, and a response
// that verifies must convert to the engine form and back (fromWire, then
// toWire) under the digest it carried: the fleet's bit-identical tables rest
// on that round trip. Any decodable response, once converted, must also
// verify and survive a second round trip unchanged.
func FuzzCellResponse(f *testing.F) {
	wk := NewWorker(sharedSim().Study(), 0)
	for _, mix := range []workload.Mix{
		{ID: "hom-mcf-1", Programs: []string{"mcf"}},
		{ID: "het-mcf-tonto", Programs: []string{"mcf", "tonto"}},
		{ID: "het-four", Programs: []string{"gcc", "libquantum", "soplex", "gcc"}},
	} {
		kind := study.Heterogeneous
		if len(mix.Programs) == 1 {
			kind = study.Homogeneous
		}
		resp, err := wk.Evaluate(context.Background(), cellFor(kind, mix).req)
		if err != nil {
			f.Fatal(err)
		}
		for _, computeNs := range []int64{0, 1_234_567} {
			AttachTrace(context.Background(), &resp, computeNs)
			b, err := json.Marshal(resp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp CellResponse
		if json.Unmarshal(data, &resp) != nil {
			return
		}
		verified := resp.verifyIntegrity(resp.Key) == nil
		back := toWire(resp.Key, fromWire(resp))
		if verified && back.Digest != resp.Digest {
			t.Fatalf("a verified response changed digest through fromWire/toWire: carried %s, now %s", resp.Digest, back.Digest)
		}
		if err := back.verifyIntegrity(resp.Key); err != nil {
			t.Fatalf("converted response does not verify: %v", err)
		}
		if again := toWire(back.Key, fromWire(back)); again.Digest != back.Digest {
			t.Fatalf("second round trip changed digest: %s, then %s", back.Digest, again.Digest)
		}
	})
}
