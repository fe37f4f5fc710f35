package service

import (
	"context"
	"d2m/internal/api"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"d2m"
)

// runLibrary runs one simulation through the library and returns its
// marshalled Result for byte comparison.
func runLibrary(t *testing.T, spec d2m.RunSpec) []byte {
	t.Helper()
	out, err := d2m.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(out.Result)
	return raw
}

// TestRunEngineHint: the v1.5 engine field is validated on /v1/run,
// the scalar hint is honored, and the status reports the engine used.
func TestRunEngineHint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, st, _ := postRun(t, ts,
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":4000,"engine":"scalar"}`)
	if code != http.StatusOK || st.State != api.JobDone {
		t.Fatalf("scalar run = %d/%s", code, st.State)
	}
	if st.Engine != d2m.EngineScalar {
		t.Errorf("engine = %q, want scalar", st.Engine)
	}

	// "auto" normalizes to the default; a lone run still executes scalar.
	code, st, _ = postRun(t, ts,
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":5000,"engine":"auto"}`)
	if code != http.StatusOK || st.State != api.JobDone {
		t.Fatalf("auto run = %d/%s", code, st.State)
	}
	if st.Engine != d2m.EngineScalar {
		t.Errorf("auto single-run engine = %q, want scalar", st.Engine)
	}
}

// TestEngineHintRejected: unknown engines answer invalid_request on
// every submission surface.
func TestEngineHintRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	post := func(path, body string) api.ErrorBody {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb api.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", path, resp.StatusCode)
		}
		return eb
	}

	eb := post("/v1/run",
		`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"measure":4000,"engine":"warp"}`)
	if eb.Error.Code != api.ErrInvalidRequest || !strings.Contains(eb.Error.Message, "warp") {
		t.Errorf("run envelope = %+v, want invalid_request naming the engine", eb.Error)
	}
	eb = post("/v1/batch",
		`{"runs":[{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"measure":4000,"engine":"warp"}]}`)
	if eb.Error.Code != api.ErrInvalidRequest {
		t.Errorf("batch envelope = %+v, want invalid_request", eb.Error)
	}
	eb = post("/v1/sweeps",
		`{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,"engine":"warp"}`)
	if eb.Error.Code != api.ErrInvalidRequest {
		t.Errorf("sweep envelope = %+v, want invalid_request", eb.Error)
	}
}

// TestSweepVectorLaneGroups: a sweep over a link-bandwidth axis (one
// warm identity, many cells) flows through the lane-group feeder — the
// lane metrics move, and every cell's result matches a scalar run.
func TestSweepVectorLaneGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	body := `{"kinds":["d2m-ns-r"],"benchmarks":["tpc-c"],"nodes":2,
		"warmup":2000,"measure":4000,
		"link_bandwidths":[0.9,1.0,1.1,1.2]}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", resp.StatusCode)
	}
	waitSweep(t, ts, st.ID, 30*time.Second)

	if groups := s.Metrics().LaneGroups.Load(); groups == 0 {
		t.Errorf("lane_groups = 0, want > 0 (sweep cells share one warm identity)")
	}
	if jobs := s.Metrics().LaneJobs.Load(); jobs < 4 {
		t.Errorf("lane_jobs = %d, want >= 4", jobs)
	}

	// Every cell must be byte-identical to its scalar library run.
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?cells=1")
	if err != nil {
		t.Fatal(err)
	}
	var full SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(full.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(full.Cells))
	}
	for i, lb := range []float64{0.9, 1.0, 1.1, 1.2} {
		want := runLibrary(t, d2m.RunSpec{
			Kind: d2m.D2MNSR, Benchmark: "tpc-c",
			Options: d2m.Options{Nodes: 2, Warmup: 2000, Measure: 4000, LinkBandwidth: lb},
		})
		got, _ := json.Marshal(full.Cells[i].Result)
		if string(got) != string(want) {
			t.Errorf("cell %d differs from scalar run:\n got  %s\n want %s", i, got, want)
		}
	}
}

// TestSweepLaneGroupSkipsCapture: a sweep whose warm identities each
// fit one lane group deposits no warm-state snapshot — the lanes share
// the warmup in-process and no scalar follower will restore one — yet
// every cell is byte-identical to a library run. The group still
// counts as one miss of its warm identity, so a later pair of single
// runs on that identity captures on the second miss and restores on
// the third.
func TestSweepLaneGroupSkipsCapture(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	var req SweepRequest
	body := `{"kinds":["d2m-ns-r","base-2l"],"benchmarks":["tpc-c","canneal"],
		"nodes":2,"warmup":2000,"measure":4000,
		"link_bandwidths":[0.5,0.6,0.7,0.8,0.9,1.0,1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9,2.0]}`
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cells, _, _, _, err := ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	code, st := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	if fin := waitSweep(t, ts, st.ID, 60*time.Second); fin.State != SweepDone || fin.Done != len(cells) {
		t.Fatalf("sweep settled %s with %d/%d done", fin.State, fin.Done, len(cells))
	}

	m := s.Metrics()
	if got := m.LaneJobs.Load(); got != uint64(len(cells)) {
		t.Errorf("lane_jobs = %d, want %d (every cell a lane)", got, len(cells))
	}
	if got := m.SnapshotCaptures.Load(); got != 0 {
		t.Errorf("snapshot captures = %d, want 0", got)
	}
	if got := m.SnapshotEntries.Load(); got != 0 {
		t.Errorf("snapshot entries = %d, want 0", got)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "?cells=1")
	if err != nil {
		t.Fatal(err)
	}
	var full SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(full.Cells) != len(cells) {
		t.Fatalf("cells = %d, want %d", len(full.Cells), len(cells))
	}
	for i, c := range cells {
		want := runLibrary(t, d2m.RunSpec{Kind: c.Kind, Benchmark: c.Benchmark, Options: c.Options})
		got, _ := json.Marshal(full.Cells[i].Result)
		if string(got) != string(want) {
			t.Errorf("cell %d differs from library run:\n got  %s\n want %s", i, got, want)
		}
	}

	// Two single runs on the first cell's warm identity (measure is
	// outside the warm key, so neither is a cache hit).
	for i, measure := range []int{5000, 6000} {
		code, js, _ := postRun(t, ts, fmt.Sprintf(
			`{"kind":"d2m-ns-r","benchmark":"tpc-c","nodes":2,"warmup":2000,"measure":%d}`, measure))
		if code != http.StatusOK || js.State != api.JobDone || js.Cached {
			t.Fatalf("run %d = %d/%s cached=%v", i, code, js.State, js.Cached)
		}
		want := runLibrary(t, d2m.RunSpec{Kind: d2m.D2MNSR, Benchmark: "tpc-c",
			Options: d2m.Options{Nodes: 2, Warmup: 2000, Measure: measure}})
		if got, _ := json.Marshal(js.Result); string(got) != string(want) {
			t.Errorf("run %d differs from library run:\n got  %s\n want %s", i, got, want)
		}
		wantCaptures, wantHits := uint64(1), uint64(i)
		if got := m.SnapshotCaptures.Load(); got != wantCaptures {
			t.Errorf("after run %d: snapshot captures = %d, want %d", i, got, wantCaptures)
		}
		if got := m.SnapshotHits.Load(); got != wantHits {
			t.Errorf("after run %d: snapshot hits = %d, want %d", i, got, wantHits)
		}
	}
}
