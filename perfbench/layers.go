package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"d2m"
	"d2m/internal/api"
	"d2m/internal/core"
	"d2m/internal/mem"
	"d2m/internal/service/sched"
	"d2m/internal/sim"
	"d2m/internal/trace"
)

// Probe inputs are fixed — the same in every run and workload — so a
// layer's figure moves only when the layer's code does.
const (
	probeSeed    = 0x9e0be
	probeNodes   = 8
	probeWarmup  = 100_000
	probeBlock   = 200_000
	probeRepeats = 3
	probeLanes   = 16
	probeAdmits  = 2000
	probeEncodes = 200
)

// workloadLayers are the per-layer metrics read off a workload's own
// traced operations. Where a workload's operations do not reach a
// layer, the times come from fixed-input probes (fillByProbes) and the
// ratios read 0; README.md says which workload reaches which.
var workloadLayers = []string{
	"d2m.run_self_ms",
	"sched.queue_wait_ms_p99",
	"sched.run_ms_p50",
	"service.http_hop_ms",
	"service.cache_hit_frac",
	"service.snapshot_hit_frac",
	"cluster.gateway_hop_ms",
	"cluster.lane_group_size_mean",
	"bench.gen_lag_ms_p99",
	"bench.conn_reuse_frac",
	"bench.trace_coverage_frac",
	"bench.trace_overhead_frac",
}

// probeLayers are the per-layer metrics the fixed-input probes measure
// in every traced run, with their units. The per-kind access metrics
// are added from the mechanism registry.
var probeLayers = [][2]string{
	{"workloads.fill_ns_per_acc", "ns"},
	{"trace.decode_ns_per_acc", "ns"},
	{"tracestore.import_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.release_ms", "ms"},
	{"core.md1_hit_frac", "fraction"},
	{"core.md3_lookups_per_kacc", "1/kacc"},
	{"baseline.access_ns_per_acc", "ns"},
	{"sim.step_ns_per_acc", "ns"},
	{"sim.lanes_ns_per_lane_acc", "ns"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.mb", "MiB"},
	{"api.encode_us", "us"},
	{"api.decode_us", "us"},
	{"sched.admit_us", "us"},
}

// accessMetric names the per-kind access-cost metric of a D2M kind.
func accessMetric(m *core.Mechanism) string {
	return "core.access_ns_per_acc." + strings.ToLower(m.Name)
}

// perLayerNames lists every per-layer metric a traced run reports.
func perLayerNames() []string {
	var out []string
	for _, p := range probeLayers {
		out = append(out, p[0])
	}
	for _, m := range core.Mechanisms() {
		if m.D2M {
			out = append(out, accessMetric(m))
		}
	}
	return append(out, workloadLayers...)
}

// timeIt returns how long f takes.
func timeIt(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// layerProbes measures each layer on fixed inputs, calling into it
// directly, and records the results on rep.
func layerProbes(ctx context.Context, cfg config, rep *report) error {
	if err := fillByProbes(ctx, cfg, rep); err != nil {
		return err
	}
	for _, name := range workloadLayers { // the ratios of layers the workload never reached
		if _, ok := rep.layers[name]; !ok {
			rep.layer(name, 0, workloadLayerUnit(name))
		}
	}
	iv, err := newStream("tpc-c", probeNodes, probeSeed)
	if err != nil {
		return err
	}
	warm := make([]mem.Access, probeWarmup)
	blk := make([]mem.Access, probeBlock)
	fillAll(iv, warm)
	fillAll(iv, blk)

	// workloads: stream generation through Interleaver.Fill.
	var fill []float64
	buf := make([]mem.Access, probeBlock)
	for r := 0; r < probeRepeats; r++ {
		for _, b := range benchSubset {
			iv, err := newStream(b, probeNodes, probeSeed)
			if err != nil {
				return err
			}
			fill = append(fill, nsPer(timeIt(func() { fillAll(iv, buf) }), len(buf)))
		}
	}
	rep.layer("workloads.fill_ns_per_acc", median(fill), "ns")

	// trace: v2 decode through FileReader.Fill; tracestore: import.
	data, err := encodeV2(blk)
	if err != nil {
		return err
	}
	var decode, imp []float64
	for r := 0; r < probeRepeats; r++ {
		fr, err := trace.NewFileReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return err
		}
		decode = append(decode, nsPer(timeIt(func() {
			for done := 0; done < len(buf); {
				done += fr.Fill(buf[done:min(done+sim.BlockAccesses, len(buf))])
			}
		}), len(buf)))
		if err := d2m.SetTraceDir(filepath.Join(cfg.dir, fmt.Sprintf("probe-traces-%d", r))); err != nil {
			return err
		}
		var ierr error
		imp = append(imp, msOf(timeIt(func() { _, ierr = d2m.ImportTrace(bytes.NewReader(data), "probe") })))
		if ierr != nil {
			return fmt.Errorf("import probe: %w", ierr)
		}
	}
	rep.layer("trace.decode_ns_per_acc", median(decode), "ns")
	rep.layer("tracestore.import_ms", median(imp), "ms")

	// core and baseline: MechInstance.Access on the pre-generated block
	// after a warmup, per kind.
	lat := make([]uint64, probeBlock)
	hit := make([]bool, probeBlock)
	var nsrLat []uint64
	var nsrHit []bool
	var baseT time.Duration
	var baseN int
	var nsr *core.Mechanism
	for _, m := range core.Mechanisms() {
		inst := m.New(mechOptions(probeNodes, probeSeed))
		stepAccesses(inst, warm, nil, nil)
		inst.ResetMeasurement()
		d := timeIt(func() { stepAccesses(inst, blk, lat, hit) })
		if m.Baseline {
			baseT += d
			baseN += len(blk)
		} else {
			rep.layer(accessMetric(m), nsPer(d, len(blk)), "ns")
		}
		if m.Name == d2m.D2MNSR.String() {
			nsr = m
			nsrLat, nsrHit = append([]uint64(nil), lat...), append([]bool(nil), hit...)
			snapshotProbes(rep, m, inst)
		}
		inst.Release()
	}
	if nsr == nil || baseN == 0 {
		return fmt.Errorf("probe: D2M-NS-R or the baselines are not registered")
	}
	rep.layer("baseline.access_ns_per_acc", nsPer(baseT, baseN), "ns")

	// sim: the timing model alone, on D2M-NS-R's recorded outcomes.
	var step []float64
	for r := 0; r < probeRepeats; r++ {
		eng := sim.NewEngine(&replayMachine{lat: nsrLat, hit: nsrHit}, probeNodes)
		var err error
		d := timeIt(func() { _, err = eng.Measure(ctx, &sliceStream{buf: blk}, len(blk)) })
		if err != nil {
			return err
		}
		step = append(step, nsPer(d, len(blk)))
	}
	rep.layer("sim.step_ns_per_acc", median(step), "ns")
	measures := make([]int, probeLanes)
	laneAccs := 0
	for i := range measures {
		measures[i] = len(blk) * (i + 1) / probeLanes
		laneAccs += measures[i]
	}
	var lanes []float64
	for r := 0; r < probeRepeats; r++ {
		eng := sim.NewEngine(&replayMachine{lat: nsrLat, hit: nsrHit}, probeNodes)
		var err error
		d := timeIt(func() {
			err = eng.MeasureLanes(ctx, &sliceStream{buf: blk}, measures, func(int) bool { return true }, func(int, sim.Report) {})
		})
		if err != nil {
			return err
		}
		lanes = append(lanes, nsPer(d, laneAccs))
	}
	rep.layer("sim.lanes_ns_per_lane_acc", median(lanes), "ns")

	// core: construction and release through the registry.
	var newT, relT []float64
	for r := 0; r < 10; r++ {
		var inst core.MechInstance
		newT = append(newT, msOf(timeIt(func() { inst = nsr.New(mechOptions(probeNodes, probeSeed)) })))
		relT = append(relT, msOf(timeIt(inst.Release)))
	}
	rep.layer("core.new_ms", median(newT), "ms")
	rep.layer("core.release_ms", median(relT), "ms")

	// core: exact metadata counts of one fixed run.
	out, err := d2m.Run(ctx, d2m.RunSpec{Kind: d2m.D2MNSR, Benchmark: "tpc-c", Options: d2m.Options{
		Nodes: probeNodes, Warmup: 20_000, Measure: 80_000, Seed: probeSeed}})
	if err != nil {
		return err
	}
	rep.layer("core.md1_hit_frac", out.Result.MD1HitFrac, "fraction")
	rep.layer("core.md3_lookups_per_kacc", float64(out.Result.MD3Lookups)*1000/float64(out.Result.Accesses), "1/kacc")

	// api: JobStatus JSON with a full result.
	js := api.JobStatus{ID: "j00000001", State: api.JobState("done"), Kind: out.Result.Kind.String(),
		Benchmark: out.Result.Benchmark, RunMS: 12.5, Result: &out.Result}
	var enc, dec []float64
	for r := 0; r < probeEncodes; r++ {
		var b []byte
		var err error
		enc = append(enc, float64(timeIt(func() { b, err = json.Marshal(js) }))/float64(time.Microsecond))
		if err != nil {
			return err
		}
		var back api.JobStatus
		dec = append(dec, float64(timeIt(func() { err = json.Unmarshal(b, &back) }))/float64(time.Microsecond))
		if err != nil {
			return err
		}
	}
	rep.layer("api.encode_us", median(enc), "us")
	rep.layer("api.decode_us", median(dec), "us")

	return admitProbe(ctx, rep)
}

// snapshotProbes times capture and restore of a warmed instance.
func snapshotProbes(rep *report, m *core.Mechanism, warmed core.MechInstance) {
	var capT, resT []float64
	var size int64
	for r := 0; r < 5; r++ {
		var snap core.MechSnapshot
		capT = append(capT, msOf(timeIt(func() { snap = warmed.Snapshot() })))
		size = snap.SizeBytes()
		fresh := m.New(mechOptions(probeNodes, probeSeed))
		resT = append(resT, msOf(timeIt(func() { fresh.Restore(snap) })))
		fresh.Release()
	}
	rep.layer("snapshot.capture_ms", median(capT), "ms")
	rep.layer("snapshot.restore_ms", median(resT), "ms")
	rep.layer("snapshot.mb", float64(size)/(1<<20), "MiB")
}

// admitProbe times Scheduler.Submit with a runner that returns at once.
func admitProbe(ctx context.Context, rep *report) error {
	s, err := sched.New(sched.Config{Workers: 1, QueueDepth: 2 * probeAdmits,
		Run: func(context.Context, d2m.RunSpec) (d2m.RunOutput, error) { return d2m.RunOutput{}, nil }})
	if err != nil {
		return err
	}
	var admit []float64
	for i := 0; i < probeAdmits; i++ {
		sub := sched.Submission{Kind: d2m.D2MNSR, Benchmark: "tpc-c", Options: d2m.Options{Seed: uint64(i) + 1}}
		var err error
		admit = append(admit, float64(timeIt(func() { _, err = s.Submit(sub) }))/float64(time.Microsecond))
		if err != nil {
			s.Shutdown(ctx)
			return fmt.Errorf("admission probe: %w", err)
		}
	}
	rep.layer("sched.admit_us", median(admit), "us")
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("admission probe: %w", err)
	}
	return nil
}

// encodeV2 writes accesses in the v2 trace format.
func encodeV2(accs []mem.Access) ([]byte, error) {
	var out bytes.Buffer
	fw, err := trace.NewFileWriter(&out)
	if err != nil {
		return nil, err
	}
	for _, a := range accs {
		if err := fw.Append(a); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// workloadLayerUnit is the unit of a workloadLayers metric.
func workloadLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	case strings.HasSuffix(name, "_mean"):
		return "lanes"
	}
	return "ms"
}
