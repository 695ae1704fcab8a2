package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchDef is the part of BENCHMARK.json the steadiness report reads.
type benchDef struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload k times, with seeds seed, seed+1, ..., each
// run a fresh process, and prints per metric the median, the quartiles,
// min and max, and the spread (interquartile distance over the median)
// against the metric's bound.
func steadiness(w io.Writer, benchPath string, k int, args []string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child, seed := childArgs(args)
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	var shares []string
	for i := 0; i < k; i++ {
		s := strconv.FormatInt(seed+int64(i), 10)
		cmd := exec.Command(self, append(child, "--seed", s)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %s: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var o output
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
			return fmt.Errorf("run with seed %s: result line: %w", s, err)
		}
		fmt.Fprintf(w, "seed %s: correct=%v attempted=%d failed=%d\n", s, o.Correct, o.Attempted, o.Failed)
		shares = append(shares, fmt.Sprintf("%d/%d", o.Failed, o.Attempted))
		for name, m := range o.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %-6s %12s %12s %12s %12s %12s %8s %6s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "spread", "bound")
	for _, name := range names {
		xs := values[name]
		q := quartiles(xs)
		mn, mx := minMax(xs)
		spread := ratio(q[2]-q[0], q[1])
		b, ok := bounds[name]
		verdict := ""
		if ok {
			verdict = fmt.Sprintf("%6.3f", b)
			switch {
			case spread > b:
				verdict += "  OVER BOUND"
			case spread > b/3:
				verdict += "  over a third of the bound"
			}
		}
		fmt.Fprintf(w, "%-36s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f %s\n",
			name, units[name], q[1], q[0], q[2], mn, mx, spread, verdict)
	}
	fmt.Fprintf(w, "failed/attempted per run: %s\n", strings.Join(shares, " "))
	return nil
}

// childArgs drops --steady and --seed (in either flag form) from args and
// returns the rest with the first seed.
func childArgs(args []string) ([]string, int64) {
	var out []string
	seed := int64(1)
	for i := 0; i < len(args); i++ {
		name, val, hasVal := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if name != "steady" && name != "seed" {
			out = append(out, args[i])
			continue
		}
		if !hasVal && i+1 < len(args) {
			i++
			val = args[i]
		}
		if name == "seed" {
			if s, err := strconv.ParseInt(val, 10, 64); err == nil {
				seed = s
			}
		}
	}
	return out, seed
}

// quartiles returns the first quartile, the median and the third quartile
// by the method of Python's statistics.quantiles(xs, n=4) (exclusive).
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	if n == 0 {
		return q
	}
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func minMax(xs []float64) (float64, float64) {
	s := sorted(xs)
	return s[0], s[len(s)-1]
}
