// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator library, a d2mserver shard, or a
// cluster gateway fronting two shards; checks the outputs; and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds this
// program and the d2mserver binary first:
//
//	bash perfbench/run.sh --workload engine_cold --seed 1 --seconds 15 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// setupRepeats is how many times each workload sets up per run;
// setup_s is the median.
const setupRepeats = 5

// buildDir holds build outputs and run state, relative to the
// repository root (ignored by git).
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	start    time.Time // process start: the first setup is timed from here
	dir      string    // this run's scratch directory
	server   string    // d2mserver binary
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload measured.
type report struct {
	setup   []time.Duration
	lat     []time.Duration // latency of each untraced operation
	simAcc  float64         // simulated accesses completed in the untraced window
	window  time.Duration   // wall time of the untraced window
	rssMiB  float64         // peak RSS of the process(es) under test
	tally   *tally
	checked int // results recomputed by the output check
	digest  string
	tracer  *tracer
	layers  map[string]metric
}

func newReport() *report { return &report{tally: newTally(), layers: map[string]metric{}} }

func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

var workloadsByName = map[string]func(context.Context, config) (*report, error){
	"engine_cold":   runEngineCold,
	"service_open":  runServiceOpen,
	"gateway_sweep": runGatewaySweep,
}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload: engine_cold, service_open or gateway_sweep")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	traceOn := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	server := flag.String("server", filepath.Join(buildDir, "d2mserver"), "d2mserver binary")
	compare := flag.String("compare", "", "compare two result files: OLD,NEW")
	flag.Parse()

	if *compare != "" {
		os.Exit(compareResults(*compare))
	}
	run, ok := workloadsByName[*workload]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload engine_cold|service_open|gateway_sweep, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceOn == 1, start: start, server: *server}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(1)
	}()

	if err := runWorkload(run, cfg); err != nil {
		stopAll()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(run func(context.Context, config) (*report, error), cfg config) error {
	cfg.dir = filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	ctx := context.Background()
	rep, err := run(ctx, cfg)
	stopAll()
	if err != nil {
		return err
	}
	if cfg.trace {
		if err := layerProbes(ctx, cfg, rep); err != nil {
			return err
		}
	}
	prov := collectProvenance(cfg)
	res, extras, err := assemble(cfg, rep)
	if err != nil {
		return err
	}
	if cfg.trace && rep.tracer != nil {
		spanDir := filepath.Join(buildDir, "spans")
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return err
		}
		if err := rep.tracer.write(filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return err
		}
	}
	return emit(cfg, prov, res, extras)
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// assemble turns a report into the printed result. Untraced runs give
// the end-to-end metrics; traced runs the per-layer ones. extras are
// figures printed and recorded beside the result but not gated.
func assemble(cfg config, rep *report) (result, map[string]any, error) {
	res := result{Correct: len(rep.tally.failed) == 0, Attempted: rep.tally.attempted,
		Failed: len(rep.tally.failed), Metrics: map[string]metric{}}
	if res.Attempted == 0 {
		return res, nil, fmt.Errorf("%s attempted no operations", cfg.workload)
	}
	lat := ms(rep.lat)
	p50 := median(append([]float64(nil), lat...))
	p90, ok90 := percentile(append([]float64(nil), lat...), 0.90)
	p99, ok99 := percentile(append([]float64(nil), lat...), 0.99)
	extras := map[string]any{
		"error_rate": rep.tally.errorRate(),
		"sim_digest": rep.digest,
		"operations": len(lat),
		"checked":    rep.checked,
	}
	if ok99 {
		extras["latency_ms_p99"] = p99
	}
	for op, why := range rep.tally.failed {
		fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %s\n", op, why)
	}
	if cfg.trace {
		for _, name := range perLayerNames() {
			m, ok := rep.layers[name]
			if !ok {
				return res, nil, fmt.Errorf("traced run did not measure %s", name)
			}
			res.Metrics[name] = m
		}
		return res, extras, nil
	}
	if !ok90 {
		return res, nil, fmt.Errorf("%d operations cannot support a p90 (need %d)", len(lat), int(minBeyond/0.1))
	}
	res.Metrics["setup_s"] = metric{median(seconds(rep.setup)), "s"}
	res.Metrics["sim_acc_per_s"] = metric{rep.simAcc / rep.window.Seconds(), "accesses/s"}
	res.Metrics["latency_ms_p50"] = metric{p50, "ms"}
	res.Metrics["latency_ms_p90"] = metric{p90, "ms"}
	res.Metrics["peak_rss_mb"] = metric{rep.rssMiB, "MiB"}
	return res, extras, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// record is the result file written beside the printed result: the
// result plus provenance and the ungated figures.
type record struct {
	Provenance provenance     `json:"provenance"`
	Result     result         `json:"result"`
	Extras     map[string]any `json:"extras"`
}

func emit(cfg config, prov provenance, res result, extras map[string]any) error {
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("metric %-34s %16.6f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(extras) {
		fmt.Printf("extra  %-34s %v\n", name, extras[name])
	}
	resDir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(record{prov, res, extras}, "", "  ")
	if err != nil {
		return err
	}
	tr := 0
	if cfg.trace {
		tr = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, tr)
	if err := os.WriteFile(filepath.Join(resDir, name), append(rec, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// simDigest hashes Result JSON documents in operation order, so two
// commits can be checked for identical simulated statistics.
func simDigest(docs [][]byte) string {
	h := sha256.New()
	for _, d := range docs {
		h.Write(d)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
