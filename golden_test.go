package d2m

// Golden Result digests: every registered kind on one benchmark per
// suite, plus every kind on tpc-c under each interconnect topology,
// pinned to the SHA-256 of its marshalled Result. Refactors of the
// simulator's internals (storage layout, pooling, dispatch) must leave
// these bytes unchanged; a change that moves a result on purpose
// regenerates testdata/golden_results.txt from the table the failure
// prints.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

const goldenResultsFile = "testdata/golden_results.txt"

// goldenOptions is the fixed run shape behind every golden digest:
// the paper's 8 nodes with windows small enough to keep the matrix
// quick.
func goldenOptions(topology string) Options {
	return Options{Nodes: 8, Warmup: 5000, Measure: 20000, Seed: 11, Topology: topology}
}

// goldenCell is one row of the golden table.
type goldenCell struct {
	kind     Kind
	bench    string
	topology string
}

func (c goldenCell) id() string {
	return fmt.Sprintf("%s %s %s", c.kind, c.bench, c.topology)
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, kind := range allKinds() {
		for _, bench := range []string{"blackscholes", "fft", "wikipedia", "mix1", "tpc-c"} {
			cells = append(cells, goldenCell{kind, bench, "crossbar"})
		}
		for _, topo := range Topologies() {
			if topo == "crossbar" {
				continue // already covered by the suite rows
			}
			cells = append(cells, goldenCell{kind, "tpc-c", topo})
		}
	}
	return cells
}

// TestGoldenResultDigests recomputes every golden cell and compares its
// Result digest against the committed table.
func TestGoldenResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which moves
		// the last bits of the floating-point Result fields.
		t.Skipf("golden digests are pinned on amd64, running on %s", runtime.GOARCH)
	}
	raw, err := os.ReadFile(goldenResultsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("%s: malformed line %q", goldenResultsFile, line)
		}
		want[strings.Join(f[:3], " ")] = f[3]
	}

	cells := goldenCells()
	got := make([]string, len(cells))
	ctx := context.Background()
	for i, c := range cells {
		res, err := runOne(ctx, c.kind, c.bench, goldenOptions(c.topology))
		if err != nil {
			t.Fatalf("%s: %v", c.id(), err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[i] = hex.EncodeToString(sum[:])
	}

	bad := 0
	for i, c := range cells {
		if w, ok := want[c.id()]; !ok {
			t.Errorf("%s: no golden digest", c.id())
			bad++
		} else if w != got[i] {
			t.Errorf("%s: digest %s, golden %s", c.id(), got[i], w)
			bad++
		}
	}
	if len(want) != len(cells) {
		t.Errorf("%s has %d rows, the matrix has %d cells", goldenResultsFile, len(want), len(cells))
		bad++
	}
	if bad > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "# kind benchmark topology sha256(Result JSON); %+v\n", goldenOptions("<topology>"))
		for i, c := range cells {
			fmt.Fprintf(&b, "%s %s\n", c.id(), got[i])
		}
		t.Logf("current table for %s:\n%s", goldenResultsFile, b.String())
	}
}
