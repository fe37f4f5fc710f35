package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/mem"
)

// service_open: open-loop POST /v1/run against one shard at a fixed
// rate, about half of what the shard sustains for this mix on a
// 2-vCPU host, so queues form only in bursts.
const (
	serviceRate     = 75.0 // requests per second
	serviceConns    = 2    // driving goroutines, one connection each
	serviceNodes    = 8
	serviceWarmup   = 20_000
	serviceMeasure  = 80_000
	serviceTraceLen = 100_000 // accesses in the uploaded trace
	serviceCheckOps = 12
)

// mixBlock is the request mix: every block of 20 consecutive requests
// holds exactly these classes, in a seeded order, so each seed offers
// the same mix and the runs differ only in order and specs.
var mixBlock = []string{
	// unique seeds: a new result and a journal append
	"cold", "cold", "cold", "cold", "cold", "cold",
	// an earlier spec again: a result-cache read
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
	// a shared warm identity with a new link_bandwidth: a snapshot
	// capture on first use, restores after
	"bandwidth", "bandwidth", "bandwidth", "bandwidth", "bandwidth",
	// the uploaded trace: v2 decode
	"trace", "trace", "trace",
}

// serviceOp is one scheduled request.
type serviceOp struct {
	due   time.Duration // offset from the start of the window
	class string
	req   api.RunRequest
}

// buildSchedule makes the seeded schedule: evenly spaced arrivals at
// rate over window, each with its request. Kinds and benchmarks are
// drawn from seeded permutations that cycle, so every seed covers the
// grid evenly.
func buildSchedule(seed uint64, rate float64, window time.Duration, traceID string) []serviceOp {
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	kinds := d2m.AllKinds()
	base := func(kind d2m.Kind, bench string, seed uint64) api.RunRequest {
		return api.RunRequest{Kind: kind.String(), Benchmark: bench, Nodes: serviceNodes,
			Warmup: serviceWarmup, Measure: serviceMeasure, Seed: seed}
	}
	// Each kind has one warm identity, on a fixed benchmark so that the
	// cost of the restores does not vary with the seed.
	idents := make([]api.RunRequest, len(kinds))
	for i, k := range kinds {
		idents[i] = base(k, benchSubset[i%len(benchSubset)], rng.Uint64()|1)
	}
	type pair struct {
		kind  d2m.Kind
		bench string
	}
	var grid []pair
	for _, k := range kinds {
		for _, b := range benchSubset {
			grid = append(grid, pair{k, b})
		}
	}
	var ops []serviceOp
	var written []api.RunRequest
	var block []string
	n := map[string]int{}
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; time.Duration(i)*gap < window; i++ {
		if i%len(mixBlock) == 0 {
			block = append(block[:0], mixBlock...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		op := serviceOp{due: time.Duration(i) * gap, class: block[i%len(mixBlock)]}
		if op.class == "repeat" && len(written) == 0 {
			op.class = "cold"
		}
		switch c := n[op.class]; op.class {
		case "cold":
			if c%len(grid) == 0 {
				rng.Shuffle(len(grid), func(a, b int) { grid[a], grid[b] = grid[b], grid[a] })
			}
			op.req = base(grid[c%len(grid)].kind, grid[c%len(grid)].bench, rng.Uint64()|1)
			written = append(written, op.req)
		case "repeat":
			op.req = written[rng.IntN(len(written))]
		case "bandwidth":
			op.req = idents[c%len(idents)]
			op.req.LinkBandwidth = 0.5 + float64(i)/1000
		case "trace":
			op.req = base(kinds[c%len(kinds)], d2m.TracePrefix+traceID, rng.Uint64()|1)
			written = append(written, op.req)
		}
		n[op.class]++
		ops = append(ops, op)
	}
	return ops
}

// httpOutcome is one request as the client saw it.
type httpOutcome struct {
	sent, done time.Time
	status     int
	err        error
	job        jobStatus
}

// jobStatus is the part of api.JobStatus the benchmark reads; Result
// stays raw so the output check compares bytes.
type jobStatus struct {
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	QueueWaitMS float64         `json:"queue_wait_ms"`
	RunMS       float64         `json:"run_ms"`
	Result      json.RawMessage `json:"result"`
	Error       string          `json:"error"`
}

// ok reports an answered request with a completed result.
func (o httpOutcome) ok() bool {
	return o.err == nil && ok2xx(o.status) && o.job.State == "done" && len(o.job.Result) > 0
}

func (o httpOutcome) failure() string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case !ok2xx(o.status):
		return fmt.Sprintf("HTTP %d", o.status)
	default:
		return fmt.Sprintf("job state %q: %s", o.job.State, o.job.Error)
	}
}

// postRun sends one POST /v1/run and decodes the answer.
func postRun(ctx context.Context, hc *httpClient, base string, req api.RunRequest) httpOutcome {
	body, err := json.Marshal(req)
	if err != nil {
		return httpOutcome{err: err}
	}
	o := httpOutcome{sent: time.Now()}
	o.status, body, o.err = hc.do(ctx, "POST", base+"/v1/run", body, nil)
	o.done = time.Now()
	if o.err == nil && ok2xx(o.status) {
		if err := json.Unmarshal(body, &o.job); err != nil {
			o.err = fmt.Errorf("decoding job status: %w", err)
		}
		var buf bytes.Buffer
		if o.err == nil && len(o.job.Result) > 0 {
			if err := json.Compact(&buf, o.job.Result); err != nil {
				o.err = fmt.Errorf("compacting result: %w", err)
			}
			o.job.Result = buf.Bytes()
		}
	}
	return o
}

// openLoop sends ops on their schedule from conns goroutines and
// returns one outcome per op. Each goroutine takes the next op, waits
// until it is due, and sends it; a goroutine held up by a slow answer
// sends its next op late, and that op's latency, timed from its due
// time, includes the delay.
func openLoop(ctx context.Context, hc *httpClient, base string, ops []serviceOp, t0 time.Time, conns int) []httpOutcome {
	out := make([]httpOutcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				time.Sleep(time.Until(t0.Add(ops[i].due)))
				out[i] = postRun(ctx, hc, base, ops[i].req)
			}
		}()
	}
	wg.Wait()
	return out
}

// makeTrace records a seeded 8-node access stream in the v2 format.
func makeTrace(seed uint64, n int) ([]byte, error) {
	iv, err := newStream("tpc-c", serviceNodes, seed|1)
	if err != nil {
		return nil, err
	}
	buf := make([]mem.Access, n)
	fillAll(iv, buf)
	return encodeV2(buf)
}

// uploadTrace posts a binary trace and returns its id.
func uploadTrace(ctx context.Context, hc *httpClient, base string, data []byte) (string, error) {
	code, body, err := hc.do(ctx, "POST", base+"/v1/traces?name=bench", data,
		map[string]string{"Content-Type": "application/octet-stream"})
	if err != nil {
		return "", fmt.Errorf("uploading trace: %w", err)
	}
	if !ok2xx(code) {
		return "", fmt.Errorf("uploading trace: HTTP %d: %s", code, body)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		return "", fmt.Errorf("uploading trace: bad answer %s", body)
	}
	return info.ID, nil
}

// serviceSetup spawns a shard with a journal and a trace library,
// waits until it is ready, imports the trace, and warms every kind's
// pools with one short run each.
func serviceSetup(ctx context.Context, cfg config, dir string, hc *httpClient) (*proc, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	p, err := startServer(cfg.server, "shard", filepath.Join(dir, "shard.log"),
		"-store", filepath.Join(dir, "store.jsonl"), "-trace-dir", filepath.Join(dir, "traces"))
	if err != nil {
		return nil, "", err
	}
	if err := waitReady(ctx, hc, p.url()); err != nil {
		return p, "", err
	}
	data, err := makeTrace(cfg.seed, serviceTraceLen)
	if err != nil {
		return p, "", err
	}
	id, err := uploadTrace(ctx, hc, p.url(), data)
	if err != nil {
		return p, "", err
	}
	for _, k := range d2m.AllKinds() {
		o := postRun(ctx, hc, p.url(), api.RunRequest{Kind: k.String(), Benchmark: d2m.TracePrefix + id,
			Nodes: serviceNodes, Warmup: 2000, Measure: 2000, Seed: 3})
		if !o.ok() {
			return p, "", fmt.Errorf("service warm-up: %s", o.failure())
		}
	}
	return p, id, nil
}

func runServiceOpen(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	setupHC := newHTTPClient(serviceConns)
	defer setupHC.close()
	var p *proc
	var traceID, dir string
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if i == 0 {
			t = cfg.start
		}
		dir = filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i))
		var err error
		p, traceID, err = serviceSetup(ctx, cfg, dir, setupHC)
		if err != nil {
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t))
		if i < setupRepeats-1 {
			if err := p.stop(); err != nil {
				return nil, fmt.Errorf("stopping shard: %w", err)
			}
		}
	}

	ops := buildSchedule(cfg.seed, serviceRate, cfg.seconds, traceID)
	before, err := scrapeMetrics(ctx, setupHC, p.url())
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(serviceConns)
	defer hc.close()
	t0 := time.Now()
	outs := openLoop(ctx, hc, p.url(), ops, t0, serviceConns)
	last := t0
	for _, o := range outs {
		if o.done.After(last) {
			last = o.done
		}
	}
	rep.window = last.Sub(t0)
	after, err := scrapeMetrics(ctx, setupHC, p.url())
	if err != nil {
		return nil, err
	}
	if rep.rssMiB, err = p.peakRSSMiB(); err != nil {
		return nil, err
	}
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("stopping shard: %w", err)
	}

	var tr *tracer
	traceFrom := cfg.seconds // no op is traced in an untraced run
	if cfg.trace {
		tr = newTracer()
		traceFrom = cfg.seconds / 2
	}
	var docs [][]byte
	var lag, hop, qwait, runMS, plain, traced []float64
	var explained, total time.Duration
	for i, o := range outs {
		due := t0.Add(ops[i].due)
		lag = append(lag, msOf(o.sent.Sub(due)))
		rep.tally.attempt()
		if ops[i].due >= traceFrom {
			traced = append(traced, msOf(o.done.Sub(due)))
			explained += traceHTTPOp(tr, i, due, o)
			total += o.done.Sub(due)
		} else if o.ok() {
			rep.lat = append(rep.lat, o.done.Sub(due))
			plain = append(plain, msOf(o.done.Sub(due)))
		}
		if !o.ok() {
			rep.tally.fail(i, o.failure())
			docs = append(docs, nil)
			continue
		}
		docs = append(docs, o.job.Result)
		rep.simAcc += float64(ops[i].req.Warmup + ops[i].req.Measure)
		hop = append(hop, msOf(o.done.Sub(o.sent))-o.job.QueueWaitMS-o.job.RunMS)
		qwait = append(qwait, o.job.QueueWaitMS) // a cache hit waits 0
		if !o.job.Cached {
			runMS = append(runMS, o.job.RunMS)
		}
	}
	rep.digest = simDigest(docs)

	if err := d2m.SetTraceDir(filepath.Join(dir, "traces")); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc4ec))
	for n := 0; n < serviceCheckOps; n++ {
		i := rng.IntN(len(ops))
		if outs[i].ok() {
			checkResult(ctx, rep, i, ops[i].req, outs[i].job.Result)
		}
	}

	if cfg.trace {
		rep.tracer = tr
		p99, _ := percentile(qwait, 0.99)
		rep.layer("sched.queue_wait_ms_p99", p99, "ms")
		rep.layer("sched.run_ms_p50", median(runMS), "ms")
		rep.layer("service.http_hop_ms", median(hop), "ms")
		lagP99, _ := percentile(lag, 0.99)
		rep.layer("bench.gen_lag_ms_p99", lagP99, "ms")
		rep.layer("bench.conn_reuse_frac", hc.reuseFrac(), "fraction")
		rep.layer("bench.trace_coverage_frac", float64(explained)/float64(total), "fraction")
		rep.layer("bench.trace_overhead_frac", median(traced)/median(plain)-1, "fraction")
		serverLayers(rep, before, after)
	}
	return rep, nil
}

// traceHTTPOp records one request's spans after the fact: the op from
// its due time, the generator's wait until sending, and the HTTP
// exchange with the server-reported queue wait and run inside it. It
// returns the time the independently measured spans explain (the hop
// itself is a remainder, so it explains nothing).
func traceHTTPOp(tr *tracer, op int, due time.Time, o httpOutcome) time.Duration {
	root := tr.add("op", op, 0, due, o.done)
	tr.add("bench.gen_wait", op, root, due, o.sent)
	h := tr.add("service.http", op, root, o.sent, o.done)
	qw := time.Duration(o.job.QueueWaitMS * float64(time.Millisecond))
	run := time.Duration(o.job.RunMS * float64(time.Millisecond))
	if qw > 0 {
		tr.add("sched.queue_wait", op, h, o.sent, o.sent.Add(qw))
	}
	if run > 0 {
		tr.add("d2m.run", op, h, o.sent.Add(qw), o.sent.Add(qw+run))
	}
	return o.sent.Sub(due) + qw + run
}

// checkResult recomputes one request in process and compares the
// Result JSON byte for byte; a mismatch fails the operation.
func checkResult(ctx context.Context, rep *report, op int, req api.RunRequest, got []byte) {
	rep.checked++
	var kind d2m.Kind
	if err := kind.UnmarshalText([]byte(req.Kind)); err != nil {
		rep.tally.fail(op, "output check: "+err.Error())
		return
	}
	want, err := runJSON(ctx, d2m.RunSpec{Kind: kind, Benchmark: req.Benchmark, Options: d2m.Options{
		Nodes: req.Nodes, Warmup: req.Warmup, Measure: req.Measure, Seed: req.Seed, LinkBandwidth: req.LinkBandwidth}})
	if err != nil {
		rep.tally.fail(op, "output check: "+err.Error())
		return
	}
	if !bytes.Equal(want, got) {
		rep.tally.fail(op, fmt.Sprintf("output check: %s/%s seed %d differs from the in-process result", req.Kind, req.Benchmark, req.Seed))
	}
}

// scrapeMetrics reads a server's Prometheus text metrics, summing each
// metric over its label sets.
func scrapeMetrics(ctx context.Context, hc *httpClient, base string) (map[string]float64, error) {
	code, body, err := hc.do(ctx, "GET", base+"/metrics", nil, nil)
	if err != nil || code != 200 {
		return nil, fmt.Errorf("scraping %s/metrics: HTTP %d, %v", base, code, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// serverLayers derives the shard-side ratios from /metrics deltas.
func serverLayers(rep *report, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	frac := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	// Sweep cells are admitted without touching the run counters, so
	// their cached share is added separately.
	hits := d("d2m_cache_hits_total") + d("d2m_sweep_cells_cached_total")
	lookups := d("d2m_cache_hits_total") + d("d2m_cache_misses_total") + d("d2m_sweep_cells_done_total")
	rep.layer("service.cache_hit_frac", frac(hits, lookups-hits), "fraction")
	rep.layer("service.snapshot_hit_frac", frac(d("d2m_snapshot_hits_total"), d("d2m_snapshot_misses_total")), "fraction")
	groups := d("d2m_lane_groups_total")
	mean := 0.0
	if groups > 0 {
		mean = d("d2m_lane_jobs_total") / groups
	}
	rep.layer("cluster.lane_group_size_mean", mean, "lanes")
}
