package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// provenance identifies the host, toolchain, code and inputs of a run.
// Two results are comparable only when their host fields agree.
type provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the build, or "unknown"
	// when the checkout is not a repository; SourceSHA256 identifies
	// the code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func collectProvenance(cfg config) provenance {
	p := provenance{CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", SourceSHA256: sourceDigest("."),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: int(cfg.seconds.Seconds()), Trace: cfg.trace}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root, outside
// the build directory, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compareResults compares two result files named "OLD,NEW" and prints,
// per metric, the new value as a share of the old. It refuses (exit 3)
// to compare runs from different hosts or toolchains, or of different
// workloads or run lengths: a slower host is not slower code, and no
// bound is widened to paper over it.
func compareResults(spec string) int {
	oldPath, newPath, ok := strings.Cut(spec, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: -compare wants OLD,NEW")
		return 2
	}
	var recs [2]record
	for i, p := range []string{oldPath, newPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	if why := incomparable(recs[0].Provenance, recs[1].Provenance); why != "" {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", why)
		return 3
	}
	for _, name := range sortedKeys(recs[1].Result.Metrics) {
		nm := recs[1].Result.Metrics[name]
		om, ok := recs[0].Result.Metrics[name]
		if !ok || om.Value == 0 {
			fmt.Printf("%-34s %14.6g %s (no old value)\n", name, nm.Value, nm.Unit)
			continue
		}
		fmt.Printf("%-34s %14.6g -> %14.6g %s (%+.1f%%)\n", name, om.Value, nm.Value, nm.Unit, 100*(nm.Value/om.Value-1))
	}
	if recs[0].Extras["sim_digest"] != recs[1].Extras["sim_digest"] && recs[0].Provenance.Seed == recs[1].Provenance.Seed {
		fmt.Println("sim_digest differs: the simulated statistics changed")
	}
	return 0
}

// incomparable names the first provenance field that makes two runs
// incomparable, or returns "".
func incomparable(a, b provenance) string {
	switch {
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu_model %q vs %q", a.CPUModel, b.CPUModel)
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("gomaxprocs %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go_version %s vs %s", a.GoVersion, b.GoVersion)
	case a.Workload != b.Workload:
		return fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("seconds %d vs %d", a.Seconds, b.Seconds)
	case a.Trace != b.Trace:
		return "traced vs untraced run"
	}
	return ""
}
