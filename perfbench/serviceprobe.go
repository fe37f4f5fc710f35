package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"d2m"
	"d2m/internal/api"
)

// The service probe's fixed requests: small runs sent one at a time,
// first each distinct spec once (uncached), then repeats (cached).
const (
	probeDistinct = 200
	probeRequests = 1000
)

// fillByProbes measures, on fixed inputs, the time-valued workload
// metrics that the workload's own operations did not reach, so every
// traced run reports a measured figure for them.
func fillByProbes(ctx context.Context, cfg config, rep *report) error {
	if _, ok := rep.layers["d2m.run_self_ms"]; !ok {
		if err := runSelfProbe(ctx, rep); err != nil {
			return err
		}
	}
	for _, name := range []string{"sched.queue_wait_ms_p99", "sched.run_ms_p50", "service.http_hop_ms", "cluster.gateway_hop_ms"} {
		if _, ok := rep.layers[name]; !ok {
			return serviceProbe(ctx, cfg, rep)
		}
	}
	return nil
}

// runSelfProbe explains three fixed engine-sized runs with the replay
// and reports the median of run time minus replay time.
func runSelfProbe(ctx context.Context, rep *report) error {
	specs := []engineSpec{{d2m.D2MNSR, "tpc-c", probeSeed}, {d2m.Base2L, "fft", probeSeed}, {d2m.D2MFS, "mix1", probeSeed}}
	tr := newTracer()
	var self []float64
	for i, s := range specs {
		op := engineRunOp(ctx, s, nil, i)
		if op.err != nil {
			return op.err
		}
		replay, err := engineReplay(ctx, tr, i, s, op.result)
		if err != nil {
			return err
		}
		self = append(self, msOf(op.lat-replay))
	}
	rep.layer("d2m.run_self_ms", median(self), "ms")
	return nil
}

// serviceProbe spawns one shard and a gateway over it, sends the fixed
// requests straight to the shard one at a time, and fills whichever of
// the scheduler, HTTP-hop and gateway-hop metrics are missing.
func serviceProbe(ctx context.Context, cfg config, rep *report) error {
	dir := filepath.Join(cfg.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	shard, err := startServer(cfg.server, "probe-shard", filepath.Join(dir, "shard.log"))
	if err != nil {
		return err
	}
	defer shard.stop()
	gw, err := startServer(cfg.server, "probe-gateway", filepath.Join(dir, "gw.log"),
		"-gateway", "-peers", "p="+shard.url(), "-probe-interval", "100ms")
	if err != nil {
		return err
	}
	defer gw.stop()
	hc := newHTTPClient(1)
	defer hc.close()
	if err := waitReady(ctx, hc, gw.url()); err != nil {
		return err
	}
	kinds := d2m.AllKinds()
	reqs := make([]api.RunRequest, probeDistinct)
	for i := range reqs {
		reqs[i] = api.RunRequest{Kind: kinds[i%len(kinds)].String(), Benchmark: benchSubset[i%len(benchSubset)],
			Nodes: 2, Warmup: 2000, Measure: 8000, Seed: probeSeed + uint64(i)}
	}
	var qwait, runMS, hop []float64
	for n := 0; n < probeRequests; n++ {
		o := postRun(ctx, hc, shard.url(), reqs[n%len(reqs)])
		if !o.ok() {
			return fmt.Errorf("service probe: %s", o.failure())
		}
		qwait = append(qwait, o.job.QueueWaitMS)
		if !o.job.Cached {
			runMS = append(runMS, o.job.RunMS)
		}
		hop = append(hop, msOf(o.done.Sub(o.sent))-o.job.QueueWaitMS-o.job.RunMS)
	}
	p99, _ := percentile(qwait, 0.99)
	setMissing(rep, "sched.queue_wait_ms_p99", p99)
	setMissing(rep, "sched.run_ms_p50", median(runMS))
	setMissing(rep, "service.http_hop_ms", median(hop))
	if _, ok := rep.layers["cluster.gateway_hop_ms"]; !ok {
		h, err := gatewayHop(ctx, hc, gw.url(), []string{shard.url()}, reqs[0])
		if err != nil {
			return err
		}
		rep.layer("cluster.gateway_hop_ms", h, "ms")
	}
	return nil
}

func setMissing(rep *report, name string, v float64) {
	if _, ok := rep.layers[name]; !ok {
		rep.layer(name, v, "ms")
	}
}

// gatewayHop sends the same cached run through the gateway and
// directly to each shard, alternating, and returns the difference of
// the medians in milliseconds.
func gatewayHop(ctx context.Context, hc *httpClient, gw string, shards []string, req api.RunRequest) (float64, error) {
	targets := append([]string{gw}, shards...)
	for _, base := range targets { // fill every cache first
		if r := postRun(ctx, hc, base, req); !r.ok() {
			return 0, fmt.Errorf("gateway hop probe: %s", r.failure())
		}
	}
	var via, direct []float64
	for i := 0; i < hopProbeRounds; i++ {
		for j, base := range targets {
			r := postRun(ctx, hc, base, req)
			if !r.ok() {
				return 0, fmt.Errorf("gateway hop probe: %s", r.failure())
			}
			d := msOf(r.done.Sub(r.sent))
			if j == 0 {
				via = append(via, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	return median(via) - median(direct), nil
}

// closedLoopLag is bench.gen_lag_ms_p99 for a closed loop: the p99 of
// the client's own gap between one operation's end and the next one's
// start.
func closedLoopLag(starts, ends []time.Time) float64 {
	var gaps []float64
	for i := 1; i < len(starts); i++ {
		gaps = append(gaps, msOf(starts[i].Sub(ends[i-1])))
	}
	p99, _ := percentile(gaps, 0.99)
	return p99
}
