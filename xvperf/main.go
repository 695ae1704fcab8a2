// Command xvperf is the repository's benchmark. It generates a seeded
// XMark document, builds a view store from it, starts the real xvserve
// binary on the store and drives one workload over loopback HTTP,
// checking every answer against direct evaluation of the document. It
// prints each metric by name and unit, then one JSON line:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With --trace 1 it reports the per-layer metrics instead: the daemon's
// own counters from the same kind of run, plus an in-process traced run of
// the workload's operations.
//
//	xvperf -xvserve bin/xvserve -work scratch/ --workload warm_read --seed 1 --seconds 10 --trace 0
//	xvperf -xvserve bin/xvserve -work scratch/ --steady 10 --workload warm_read
//
// xvperf/run.sh builds both binaries from the checkout and passes the
// first two flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xvperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvperf", flag.ContinueOnError)
	workload := fs.String("workload", warmRead, "workload: warm_read, cold_query, read_write_mix, or all (each untraced, then traced)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics (daemon counters and the in-process traced run)")
	xvserve := fs.String("xvserve", "", "xvserve binary built from this tree")
	work := fs.String("work", "", "scratch directory for stores and spans")
	steady := fs.Int("steady", 0, "run the workload this many times with seeds seed, seed+1, ... and report each metric's spread")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds (for --steady)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *xvserve == "" || *work == "" {
		return fmt.Errorf("-xvserve and -work are required (xvperf/run.sh passes them)")
	}
	type job struct {
		workload string
		trace    bool
	}
	var jobs []job
	for _, w := range workloads {
		switch *workload {
		case w:
			jobs = append(jobs, job{w, *trace == 1})
		case "all":
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	}
	if len(jobs) == 0 || (*steady > 0 && len(jobs) > 1) {
		return fmt.Errorf("unknown workload %q (want one of %v, or all without --steady)", *workload, workloads)
	}
	if *seconds <= 0 {
		return fmt.Errorf("need --seconds > 0")
	}
	if *steady > 0 {
		return steadiness(stdout, *bench, *steady, args)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	for _, j := range jobs {
		res, err := runWorkload(config{
			workload: j.workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
			trace: j.trace, xvserve: *xvserve, work: *work, setups: runSetups, probe: probeBatches,
		})
		if err != nil {
			return err
		}
		if err := report(stdout, res); err != nil {
			return err
		}
	}
	return nil
}

// output is the benchmark's last line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics by name and unit, then the result line.
func report(w io.Writer, res *result) error {
	out := output{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	kind := "end-to-end"
	if res.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "workload %s (%s metrics): %d operations attempted, %d failed, checks %s\n",
		res.workload, kind, res.attempted, res.failed, map[bool]string{true: "passed", false: "FAILED"}[res.correct])
	for _, n := range res.info {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = metricJSON{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
