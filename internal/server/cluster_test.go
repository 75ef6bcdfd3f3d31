package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"smtflex/internal/cluster"
	"smtflex/internal/config"
	"smtflex/internal/core"
	"smtflex/internal/memo"
	"smtflex/internal/study"
	"smtflex/internal/workload"
)

// TestRetryAfterJitterBounds pins the shed hint's range: always within
// [retryAfterMin, retryAfterMax], and actually jittered (more than one
// distinct value over many draws — a constant hint would re-synchronize
// shed clients into the next thundering herd).
func TestRetryAfterJitterBounds(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		v := retryAfter()
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("retryAfter() = %q, not an integer", v)
		}
		if secs < retryAfterMin || secs > retryAfterMax {
			t.Fatalf("retryAfter() = %d, want within [%d, %d]", secs, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("retryAfter() produced a single value over 1000 draws; want jitter")
	}
}

// coordinatorSim is a fresh engine loaded with the shared engine's
// profiles, for a coordinator daemon (its Config.Sim and its study): the
// shared engine's sweep cache holds what other tests swept, which a
// coordinator on it would answer without dispatching.
func coordinatorSim(t *testing.T) *core.Simulator {
	t.Helper()
	var buf bytes.Buffer
	if err := sharedSim().Source().SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(testSimOpts()...)
	if _, err := sim.Source().LoadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return sim
}

// mcfCell is the JSON cell request for n copies of mcf on 4B under the
// cell's content address, as a coordinator sends it.
func mcfCell(t *testing.T, n int) string {
	t.Helper()
	st := sharedSim().Study()
	d, err := config.DesignByName("4B", true)
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.Mix{ID: fmt.Sprintf("hom-mcf-%d", n)}
	for range n {
		mix.Programs = append(mix.Programs, "mcf")
	}
	b, err := json.Marshal(cluster.CellRequest{
		Key: memo.KeyHash(st.CellKey(d, study.Homogeneous, n, mix)), Fingerprint: st.Fingerprint(),
		Design: d.Name, SMT: d.SMTEnabled, BandwidthGBps: d.MemBandwidthGBps,
		Kind: study.Homogeneous.String(), N: n, MixID: mix.ID, Programs: mix.Programs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerRoleServesCells drives the worker-role daemon end to end: the
// cell route evaluates through the shared endpoint spine, healthz reports
// the role, /debug/cluster dumps the content-store counters, a mismatched
// fleet fingerprint is refused with 409 and a key that is not the cell's
// content address with 400.
func TestWorkerRoleServesCells(t *testing.T) {
	wk := cluster.NewWorker(sharedSim().Study(), 0)
	_, ts := newTestServer(t, Config{ClusterWorker: wk})

	st := sharedSim().Study()
	code, body, _ := postJSON(t, ts.URL+cluster.CellPath, mcfCell(t, 2))
	if code != http.StatusOK {
		t.Fatalf("cell: code=%d body=%s", code, body)
	}
	var resp cluster.CellResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode cell response: %v", err)
	}
	if resp.STP <= 0 || len(resp.Threads) != 2 {
		t.Errorf("cell response: STP=%g threads=%d, want positive STP and 2 threads", resp.STP, len(resp.Threads))
	}

	// The engine result must match a direct evaluation bit-for-bit.
	d, _ := config.DesignByName("4B", true)
	want, err := st.EvaluateMixCtx(context.Background(), d, workload.Mix{ID: "hom-mcf-2", Programs: []string{"mcf", "mcf"}})
	if err != nil {
		t.Fatalf("direct evaluation: %v", err)
	}
	if resp.STP != want.STP || resp.ANTT != want.ANTT || resp.Watts != want.Watts {
		t.Errorf("cell response differs from direct evaluation: got STP=%v ANTT=%v, want STP=%v ANTT=%v",
			resp.STP, resp.ANTT, want.STP, want.ANTT)
	}

	// Fingerprint mismatch is terminal: 409.
	bad := `{"key":"k2","fingerprint":"bogus","design":"4B","smt":true,"programs":["mcf"]}`
	code, body, _ = postJSON(t, ts.URL+cluster.CellPath, bad)
	if code != http.StatusConflict {
		t.Fatalf("mismatched fingerprint: code=%d body=%s, want 409", code, body)
	}
	forged := strings.Replace(mcfCell(t, 2), `"key":"`, `"key":"00`, 1)
	if code, body, _ = postJSON(t, ts.URL+cluster.CellPath, forged); code != http.StatusBadRequest {
		t.Fatalf("forged key: code=%d body=%s, want 400", code, body)
	}

	// Role surfaces.
	code, body = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"role":"worker"`) {
		t.Errorf("healthz: code=%d body=%s, want role=worker", code, body)
	}
	code, body = getJSON(t, ts.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(body), `"cells"`) {
		t.Errorf("/debug/cluster: code=%d body=%s, want cells cache counters", code, body)
	}
	code, body = getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), `smtflexd_cache_entries{cache="cells"}`) {
		t.Errorf("/metrics missing cells cache series (code=%d)", code)
	}
}

// TestWorkerRejectsMalformedCells: a cell that names an unknown design, no
// design or no programs is the client's fault, so the worker answers 400,
// and a coordinator handed that 400 gives the cell up at once: no retry on
// another worker, no local fallback.
func TestWorkerRejectsMalformedCells(t *testing.T) {
	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study(), 0)})
	for _, tc := range []struct{ name, body string }{
		{"unknown design", `{"key":"k","design":"nope","smt":true,"kind":"homogeneous","n":1,"programs":["mcf"]}`},
		{"missing design", `{"key":"k","smt":true,"kind":"homogeneous","n":1,"programs":["mcf"]}`},
		{"no programs", `{"key":"k","design":"4B","smt":true,"kind":"homogeneous","n":1,"programs":[]}`},
	} {
		if code, body, _ := postJSON(t, workerTS.URL+cluster.CellPath, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: code=%d body=%s, want 400", tc.name, code, body)
		}
	}

	// The coordinator resolves designs the worker does not know (the
	// Section 8.1 alternatives), so every cell of this sweep draws a 400.
	coord, err := cluster.NewCoordinator(coordinatorSim(t).Study(), []string{workerTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	d := config.AlternativeDesigns(true)[0]
	if _, err := coord.SweepDesign(context.Background(), d, study.Heterogeneous); err == nil {
		t.Fatalf("sweep of %s through a worker that does not know it succeeded, want the worker's rejection", d.Name)
	}
	if st := coord.State(); st.Retries != 0 || st.Fallbacks != 0 {
		t.Errorf("rejected cells: retries=%d fallbacks=%d, want 0 and 0", st.Retries, st.Fallbacks)
	}
}

// TestCoordinatorRoleFansOut stands up a worker daemon and a coordinator
// daemon, runs a sweep through the coordinator's public API, and asserts
// the response is byte-identical to a solo daemon's — plus the coordinator
// surfaces: healthz worker liveness, /debug/cluster, fleet metrics.
func TestCoordinatorRoleFansOut(t *testing.T) {
	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study(), 0)})
	csim := coordinatorSim(t)
	coord, err := cluster.NewCoordinator(csim.Study(), []string{workerTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, coordTS := newTestServer(t, Config{Sim: csim, Coordinator: coord})
	_, soloTS := newTestServer(t, Config{})

	const body = `{"design":"4B","kind":"heterogeneous"}`
	codeC, gotC, _ := postJSON(t, coordTS.URL+"/v1/sweep", body)
	codeS, gotS, _ := postJSON(t, soloTS.URL+"/v1/sweep", body)
	if codeC != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("sweep: coordinator=%d solo=%d", codeC, codeS)
	}
	if string(gotC) != string(gotS) {
		t.Fatal("coordinator sweep response differs from solo daemon's")
	}

	code, hb := getJSON(t, coordTS.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(hb), `"role":"coordinator"`) || !strings.Contains(string(hb), `"alive":true`) {
		t.Errorf("coordinator healthz: code=%d body=%s, want role and live worker", code, hb)
	}
	code, db := getJSON(t, coordTS.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(db), `"dispatched"`) {
		t.Errorf("/debug/cluster: code=%d body=%s", code, db)
	}
	code, mb := getJSON(t, coordTS.URL+"/metrics")
	if code != http.StatusOK ||
		!strings.Contains(string(mb), "smtflexd_cluster_dispatched_total") ||
		!strings.Contains(string(mb), `smtflexd_memo_hits_total{cache="fleet"}`) {
		t.Errorf("/metrics missing fleet series (code=%d)", code)
	}
}

// TestCoordinatorSweepsLiveInItsStudy: a coordinator keeps its sweeps in
// its study's sweep cache. A sweep the study already holds is answered with
// no dispatch and the solo daemon's bytes, and a sweep the fleet computed
// costs the study no evaluation.
func TestCoordinatorSweepsLiveInItsStudy(t *testing.T) {
	ctx := context.Background()
	const held = `{"design":"4B","kind":"heterogeneous"}`
	_, soloTS := newTestServer(t, Config{})
	codeS, gotS, _ := postJSON(t, soloTS.URL+"/v1/sweep", held)

	_, workerTS := newTestServer(t, Config{ClusterWorker: cluster.NewWorker(sharedSim().Study(), 0)})
	csim := coordinatorSim(t)
	coord, err := cluster.NewCoordinator(csim.Study(), []string{workerTS.URL}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	_, coordTS := newTestServer(t, Config{Sim: csim, Coordinator: coord})

	d4B, _ := config.DesignByName("4B", true)
	if _, err := csim.Study().SweepDesign(ctx, d4B, study.Heterogeneous); err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	codeC, gotC, _ := postJSON(t, coordTS.URL+"/v1/sweep", held)
	if codeC != http.StatusOK || codeS != http.StatusOK {
		t.Fatalf("sweep: coordinator=%d solo=%d", codeC, codeS)
	}
	if string(gotC) != string(gotS) {
		t.Error("coordinator's answer from its study differs from the solo daemon's")
	}
	if n := coord.State().Dispatched; n != 0 {
		t.Errorf("sweep the study held: %d dispatches, want 0", n)
	}

	if code, body, _ := postJSON(t, coordTS.URL+"/v1/sweep", `{"design":"8m","kind":"heterogeneous"}`); code != http.StatusOK {
		t.Fatalf("fleet sweep: code=%d body=%s", code, body)
	}
	if coord.State().Dispatched == 0 {
		t.Fatal("fleet sweep dispatched nothing")
	}
	evals := csim.Study().Evaluations()
	d8m, _ := config.DesignByName("8m", true)
	if _, err := csim.Study().SweepDesign(ctx, d8m, study.Heterogeneous); err != nil {
		t.Fatalf("study sweep after the fleet's: %v", err)
	}
	if n := csim.Study().Evaluations() - evals; n != 0 {
		t.Errorf("sweep the fleet computed cost the study %d evaluations, want 0", n)
	}
}

// TestConfigRejectsDualRole pins the one-role-per-daemon contract.
func TestConfigRejectsDualRole(t *testing.T) {
	wk := cluster.NewWorker(sharedSim().Study(), 0)
	coord, err := cluster.NewCoordinator(sharedSim().Study(), []string{"http://x:1"}, cluster.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if _, err := New(Config{Sim: sharedSim(), Coordinator: coord, ClusterWorker: wk}); err == nil {
		t.Fatal("Config with both roles accepted, want error")
	}
}

// TestSoloDebugCluster: the surface exists in every role.
func TestSoloDebugCluster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getJSON(t, ts.URL+"/debug/cluster")
	if code != http.StatusOK || !strings.Contains(string(body), `"role":"solo"`) {
		t.Errorf("/debug/cluster: code=%d body=%s, want solo role", code, body)
	}
}
