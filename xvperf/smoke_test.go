package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildXvserve builds the daemon from this tree into a temporary directory.
func buildXvserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "xvserve")
	cmd := exec.Command("go", "build", "-o", bin, "xmlviews/cmd/xvserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building xvserve: %v\n%s", err, out)
	}
	return bin
}

// benchMetrics reads the metric names BENCHMARK.json declares.
func benchMetrics(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload for a few operations against the real
// daemon with all checks on, and the traced run of one of them, and checks
// that each run reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts xvserve")
	}
	bin := buildXvserve(t)
	endToEnd, perLayer := benchMetrics(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{warmRead, false}, {coldQuery, false}, {readWriteMix, false}, {readWriteMix, true}} {
		cfg := config{workload: tc.workload, seed: 7, seconds: 500 * time.Millisecond, trace: tc.trace,
			xvserve: bin, work: t.TempDir(), setups: 1, probe: batchKinds}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", tc.workload, tc.trace, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d notes=%v",
				tc.workload, tc.trace, res.correct, res.attempted, res.failed, res.notes)
		}
		want := endToEnd
		if tc.trace {
			want = perLayer
		}
		got := map[string]bool{}
		for _, m := range res.metrics {
			got[m.name] = true
			if !want[m.name] {
				t.Errorf("%s: reports undeclared metric %s", tc.workload, m.name)
			}
		}
		for name := range want {
			if !got[name] {
				t.Errorf("%s (trace %v): declared metric %s missing", tc.workload, tc.trace, name)
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(data, n=4), which the steadiness report mirrors.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 40; i++ {
		xs = append(xs, float64(i))
	}
	// Ten samples (31..40) lie beyond the reported tail.
	if got := tail(xs); got != 30 {
		t.Errorf("tail of 1..40 = %v, want 30", got)
	}
	if got := tail([]float64{3, 1, 2}); got != 3 {
		t.Errorf("tail of three samples = %v, want the maximum", got)
	}
}

func TestChildArgs(t *testing.T) {
	args, seed := childArgs([]string{"-xvserve", "x", "--steady", "10", "--seed=4", "--workload", "cold_query"})
	want := []string{"-xvserve", "x", "--workload", "cold_query"}
	if seed != 4 || len(args) != len(want) {
		t.Fatalf("childArgs = %v, %d", args, seed)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("childArgs = %v, want %v", args, want)
		}
	}
}
