package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a := buildSchedule(7, 75, 5*time.Second, "t1")
	b := buildSchedule(7, 75, 5*time.Second, "t1")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := buildSchedule(8, 75, 5*time.Second, "t1"); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 300 || len(a) > 450 {
		t.Fatalf("%d arrivals in 5s at 75/s", len(a))
	}
	classes := map[string]int{}
	for i, op := range a {
		if op.due < 0 || op.due >= 5*time.Second || (i > 0 && op.due < a[i-1].due) {
			t.Fatalf("op %d due at %v: outside the window or out of order", i, op.due)
		}
		classes[op.class]++
	}
	for _, c := range []string{"cold", "repeat", "bandwidth", "trace"} {
		if classes[c] == 0 {
			t.Errorf("no %s requests in %v", c, classes)
		}
	}
}

// A stalled answer delays every request queued behind it on the same
// connection; timing from the due time charges them that wait.
func TestStallInflatesQueuedLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		w.Write([]byte(`{"state":"done","result":{"Cycles":1}}`))
	}))
	defer srv.Close()
	var ops []serviceOp
	for i := 0; i < 10; i++ {
		ops = append(ops, serviceOp{due: time.Duration(i) * 10 * time.Millisecond})
	}
	hc := newHTTPClient(1)
	defer hc.close()
	t0 := time.Now()
	outs := openLoop(context.Background(), hc, srv.URL, ops, t0, 1)
	for i, o := range outs {
		if !o.ok() {
			t.Fatalf("op %d failed: %s", i, o.failure())
		}
		lat := o.done.Sub(t0.Add(ops[i].due))
		if wait := stall - ops[i].due; lat < wait {
			t.Errorf("op %d: latency %v from its due time, want at least the %v it waited behind the stall", i, lat, wait)
		}
		if i > 0 && o.done.Sub(o.sent) > 100*time.Millisecond {
			t.Errorf("op %d: the server itself took %v", i, o.done.Sub(o.sent))
		}
	}
	if hc.reuseFrac() < 0.8 {
		t.Errorf("connection reuse %.2f: bodies not drained?", hc.reuseFrac())
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 0.90, false}, {100, 0.90, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := percentileOK(c.n, c.p); got != c.want {
			t.Errorf("percentileOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, reversed
	}
	if v, ok := percentile(xs, 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs, 0.99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99, false", v, ok)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestErrorAccounting(t *testing.T) {
	outs := []httpOutcome{
		{status: 200, job: jobStatus{State: "done", Result: []byte(`{}`)}},
		{status: 429},
		{err: errors.New("connection reset")},
		{status: 200, job: jobStatus{State: "failed", Error: "boom"}},
		{status: 200, job: jobStatus{State: "done"}}, // no result
		{status: 200, job: jobStatus{State: "done", Result: []byte(`{}`)}},
	}
	tl := newTally()
	for i, o := range outs {
		tl.attempt()
		if !o.ok() {
			tl.fail(i, o.failure())
		}
	}
	tl.fail(5, "output check: differs")
	tl.fail(5, "counted once")
	tl.fail(1, "counted once")
	if tl.attempted != 6 || len(tl.failed) != 5 {
		t.Fatalf("attempted %d failed %d, want 6 and 5", tl.attempted, len(tl.failed))
	}
	if r := tl.errorRate(); r != 5.0/6 {
		t.Errorf("error rate %v", r)
	}
	if tl.failed[1] != "HTTP 429" || tl.failed[5] != "output check: differs" {
		t.Errorf("failure reasons %v", tl.failed)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50 * ms, End: 70 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"op": 50 * ms, "a": 30 * ms, "b": 20 * ms, "c": 20 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// BENCHMARK.json must list exactly the metrics the program reports.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	rep.tally.attempt()
	rep.setup = []time.Duration{time.Second}
	rep.window = time.Second
	for i := 0; i < 100; i++ {
		rep.lat = append(rep.lat, time.Millisecond)
	}
	res, _, err := assemble(config{}, rep)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name+" "+m.Unit)
	}
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(layers, perLayerNames()) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", perLayerNames(), layers)
	}
}
