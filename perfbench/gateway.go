package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"time"

	"d2m"
	"d2m/internal/api"
)

// gateway_sweep: a closed loop of sweeps through a gateway fronting two
// shards. Each sweep is 2 kinds × 2 benchmarks × a 16-value
// link_bandwidths axis with a fresh seed: four warm identities, each a
// 16-lane group on its owning shard.
const (
	sweepNodes      = 8
	sweepWarmup     = 40_000
	sweepMeasure    = 160_000
	sweepBandwidths = 16
	sweepDigestOps  = 2 // sim_digest covers the first two sweeps
	sweepCheckCells = 8
	hopProbeRounds  = 30
)

// sweepSpec returns sweep i of a run. Kind pairs and benchmark pairs
// come from seeded permutations that cycle, so every run covers the
// kinds and benchmark pairs evenly; the seed is fresh per sweep.
func sweepSpec(seed uint64, i int) d2m.SweepSpec {
	kinds := d2m.AllKinds()
	perRound := len(kinds) / 2
	kp := rand.New(rand.NewPCG(seed, uint64(i/perRound)+0x5eed)).Perm(len(kinds))
	j := i % perRound
	var pairs [][2]string
	for a := range benchSubset {
		for b := a + 1; b < len(benchSubset); b++ {
			pairs = append(pairs, [2]string{benchSubset[a], benchSubset[b]})
		}
	}
	bp := rand.New(rand.NewPCG(seed, uint64(i/len(pairs))+0xbe4c)).Perm(len(pairs))
	bench := pairs[bp[i%len(pairs)]]
	spec := d2m.SweepSpec{
		Kinds:      []string{kinds[kp[2*j]].String(), kinds[kp[2*j+1]].String()},
		Benchmarks: bench[:],
		Seeds:      []uint64{rand.New(rand.NewPCG(seed, uint64(i))).Uint64() | 1},
		Nodes:      sweepNodes, Warmup: sweepWarmup, Measure: sweepMeasure,
	}
	for b := 0; b < sweepBandwidths; b++ {
		spec.LinkBandwidths = append(spec.LinkBandwidths, 0.5+0.1*float64(b))
	}
	return spec
}

// sweepOutcome is one sweep as the client saw it.
type sweepOutcome struct {
	start time.Time // when the client began the sweep
	end   time.Time // when it finished with it, failed or not
	lat   time.Duration
	cells [][]byte // compacted Result JSON per cell, expansion order
	err   error
}

// cellView is the part of a ?cells=1 cell the benchmark reads.
type cellView struct {
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// runSweep posts one sweep, follows its event stream to the terminal
// event, then reads every cell. With a tracer each step is a span.
func runSweep(ctx context.Context, hc *httpClient, base string, spec d2m.SweepSpec, tr *tracer, op int) sweepOutcome {
	t := time.Now()
	root := tr.begin("op", op, 0)
	defer tr.end(root)
	body, err := json.Marshal(spec)
	if err != nil {
		return sweepOutcome{err: err}
	}
	id := tr.begin("cluster.sweep_post", op, root)
	code, resp, err := hc.do(ctx, "POST", base+"/v1/sweeps", body, nil)
	tr.end(id)
	if err != nil || !ok2xx(code) {
		return sweepOutcome{err: fmt.Errorf("POST /v1/sweeps: HTTP %d %v %s", code, err, resp)}
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &st); err != nil || st.ID == "" {
		return sweepOutcome{err: fmt.Errorf("POST /v1/sweeps: bad answer %s", resp)}
	}
	id = tr.begin("cluster.sweep_follow", op, root)
	code, resp, err = hc.do(ctx, "GET", base+"/v1/sweeps/"+st.ID, nil, map[string]string{"Accept": "text/event-stream"})
	tr.end(id)
	if err != nil || code != 200 || !strings.Contains(string(resp), "event: sweep") {
		return sweepOutcome{err: fmt.Errorf("following sweep %s: HTTP %d %v", st.ID, code, err)}
	}
	id = tr.begin("cluster.cells_read", op, root)
	code, resp, err = hc.do(ctx, "GET", base+"/v1/sweeps/"+st.ID+"?cells=1", nil, nil)
	tr.end(id)
	if err != nil || code != 200 {
		return sweepOutcome{err: fmt.Errorf("reading sweep %s: HTTP %d %v", st.ID, code, err)}
	}
	var full struct {
		State string     `json:"state"`
		Cells []cellView `json:"cells"`
	}
	if err := json.Unmarshal(resp, &full); err != nil {
		return sweepOutcome{err: fmt.Errorf("decoding sweep %s: %w", st.ID, err)}
	}
	out := sweepOutcome{lat: time.Since(t)}
	want := len(spec.Kinds) * len(spec.Benchmarks) * len(spec.LinkBandwidths)
	if full.State != "done" || len(full.Cells) != want {
		out.err = fmt.Errorf("sweep %s: state %q with %d of %d cells", st.ID, full.State, len(full.Cells), want)
		return out
	}
	for i, c := range full.Cells {
		var buf bytes.Buffer
		if c.State != "done" || json.Compact(&buf, c.Result) != nil {
			out.err = fmt.Errorf("sweep %s cell %d: state %q %s", st.ID, i, c.State, c.Error)
			return out
		}
		out.cells = append(out.cells, buf.Bytes())
	}
	return out
}

// fleet is the gateway and its two shards.
type fleet struct{ gw, a, b *proc }

func (f fleet) stop() error {
	var first error
	for _, p := range []*proc{f.gw, f.a, f.b} {
		if p != nil {
			if err := p.stop(); err != nil && first == nil {
				first = fmt.Errorf("stopping %s: %w", p.name, err)
			}
		}
	}
	return first
}

// gatewaySetup spawns two shards and a gateway, waits until the
// gateway is ready, and warms every kind's pools on both shards with a
// small sweep.
func gatewaySetup(ctx context.Context, cfg config, dir string, hc *httpClient) (fleet, error) {
	var f fleet
	var err error
	if f.a, err = startServer(cfg.server, "shard-a", filepath.Join(dir, "a.log"), "-shard", "a"); err != nil {
		return f, err
	}
	if f.b, err = startServer(cfg.server, "shard-b", filepath.Join(dir, "b.log"), "-shard", "b"); err != nil {
		return f, err
	}
	if f.gw, err = startServer(cfg.server, "gateway", filepath.Join(dir, "gw.log"), "-gateway",
		"-peers", "a="+f.a.url()+",b="+f.b.url(), "-probe-interval", "100ms"); err != nil {
		return f, err
	}
	if err := waitReady(ctx, hc, f.gw.url()); err != nil {
		return f, err
	}
	var kinds []string
	for _, k := range d2m.AllKinds() {
		kinds = append(kinds, k.String())
	}
	warm := d2m.SweepSpec{Kinds: kinds, Benchmarks: []string{"tpc-c"}, Seeds: []uint64{3},
		LinkBandwidths: []float64{1, 2}, Nodes: sweepNodes, Warmup: 2000, Measure: 2000}
	if o := runSweep(ctx, hc, f.gw.url(), warm, nil, -1); o.err != nil {
		return f, fmt.Errorf("gateway warm-up: %w", o.err)
	}
	return f, nil
}

func runGatewaySweep(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	hc := newHTTPClient(2)
	defer hc.close()
	var f fleet
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if i == 0 {
			t = cfg.start
		}
		var err error
		f, err = gatewaySetup(ctx, cfg, cfg.dir, hc)
		if err != nil {
			f.stop()
			return nil, err
		}
		rep.setup = append(rep.setup, time.Since(t))
		if i < setupRepeats-1 {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer f.stop()

	before, err := fleetMetrics(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	untraced := cfg.seconds
	if cfg.trace {
		untraced = cfg.seconds / 2
	}
	hc.conns.Store(0)
	hc.reusedConns.Store(0)
	var outs []sweepOutcome
	var specs []d2m.SweepSpec
	next := func(tr *tracer) {
		spec := sweepSpec(cfg.seed, len(outs))
		t := time.Now()
		o := runSweep(ctx, hc, f.gw.url(), spec, tr, len(outs))
		o.start, o.end = t, time.Now()
		specs, outs = append(specs, spec), append(outs, o)
	}
	t0 := time.Now()
	for len(outs) < minOps || time.Since(t0) < untraced {
		next(nil)
	}
	rep.window = time.Since(t0)
	nPlain := len(outs)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		for t1 := time.Now(); time.Since(t1) < cfg.seconds-untraced; {
			next(tr)
		}
	}
	after, err := fleetMetrics(ctx, hc, f)
	if err != nil {
		return nil, err
	}
	for _, p := range []*proc{f.gw, f.a, f.b} {
		mib, err := p.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rep.rssMiB += mib
	}

	var hop float64
	if cfg.trace {
		cells, err := specs[0].Expand()
		if err != nil {
			return nil, err
		}
		req := cellRequest(cells[0])
		if hop, err = gatewayHop(ctx, hc, f.gw.url(), []string{f.a.url(), f.b.url()}, req); err != nil {
			return nil, err
		}
	}
	reuse := hc.reuseFrac()
	if err := f.stop(); err != nil {
		return nil, err
	}

	var docs [][]byte
	var plain, traced []float64
	var starts, ends []time.Time
	for i, o := range outs {
		rep.tally.attempt()
		if i < nPlain {
			starts, ends = append(starts, o.start), append(ends, o.end)
		}
		if o.err != nil {
			rep.tally.fail(i, o.err.Error())
			continue
		}
		if i < sweepDigestOps {
			docs = append(docs, o.cells...)
		}
		if i < nPlain {
			rep.lat = append(rep.lat, o.lat)
			plain = append(plain, msOf(o.lat))
			rep.simAcc += float64(len(o.cells) * (sweepWarmup + sweepMeasure))
		} else {
			traced = append(traced, msOf(o.lat))
		}
	}
	rep.digest = simDigest(docs)

	rng := rand.New(rand.NewPCG(cfg.seed, 0xc4ec))
	for n := 0; n < sweepCheckCells; n++ {
		i := rng.IntN(len(outs))
		if outs[i].err != nil {
			continue
		}
		cells, err := specs[i].Expand()
		if err != nil {
			return nil, err
		}
		c := rng.IntN(len(cells))
		checkResult(ctx, rep, i, cellRequest(cells[c]), outs[i].cells[c])
	}

	if cfg.trace {
		rep.tracer = tr
		explained, total := time.Duration(0), time.Duration(0)
		self := selfTimes(tr.snapshot())
		for name, d := range self {
			if name == "op" {
				total += d
			} else {
				explained += d
			}
		}
		total += explained
		rep.layer("bench.trace_coverage_frac", float64(explained)/float64(total), "fraction")
		rep.layer("bench.trace_overhead_frac", median(traced)/median(plain)-1, "fraction")
		rep.layer("bench.conn_reuse_frac", reuse, "fraction")
		rep.layer("cluster.gateway_hop_ms", hop, "ms")
		rep.layer("bench.gen_lag_ms_p99", closedLoopLag(starts, ends), "ms")
		serverLayers(rep, before, after)
	}
	return rep, nil
}

// cellRequest is the run request of one sweep cell.
func cellRequest(c d2m.SweepCell) api.RunRequest {
	o := c.Options
	return api.RunRequest{Kind: c.Kind.String(), Benchmark: c.Benchmark, Nodes: o.Nodes,
		Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed, LinkBandwidth: o.LinkBandwidth}
}

// fleetMetrics sums the two shards' /metrics.
func fleetMetrics(ctx context.Context, hc *httpClient, f fleet) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range []*proc{f.a, f.b} {
		m, err := scrapeMetrics(ctx, hc, p.url())
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}
