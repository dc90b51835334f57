// Command perfbench is the repository's benchmark. It drives one named
// workload through the real serving stack (in-process services behind
// netserve over loopback TCP, and a gateway where the workload has one),
// checks every verdict, and prints the end-to-end metrics, or with
// -trace 1 the per-layer metrics, as the JSON object on its last line of
// output. perfbench/run.py builds and runs it:
//
//	python3 perfbench/run.py --workload durable-single --seed 1 --seconds 30 --trace 0
//
// A pass has two load phases, each in rounds on fresh stacks. The
// open-loop phase (60% of the time) offers jobs at the workload's fixed
// rate from a generator process and yields verdict latency, CPU per job,
// accepted load and restore time; the closed-loop phase (30%) keeps a
// fixed number of frames in flight and yields capacity. Set-up is timed
// on every stack the pass builds and reported as the median. -trace 1
// runs an untraced and a traced pass of half the time each, reports the
// per-layer metrics of the traced pass, the untraced pass's
// verdict_p99_us (not gated, so not among the -trace 0 metrics) and the
// tracing overhead on every end-to-end metric, and writes the traced
// spans to <out>/spans/<workload>.csv. BASELINE.md describes the
// workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "generate" {
		os.Exit(generate(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named, unit-carrying value of a result.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// checkError is a failed correctness check: the run's numbers stand for
// a wrong answer.
type checkError struct{ err error }

func (e checkError) Error() string { return "correctness check failed: " + e.err.Error() }
func (e checkError) Unwrap() error { return e.err }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: durable-single, batch-large-m or gateway-mirror")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same jobs")
	seconds := fs.Int("seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	out := fs.String("out", ".perfbench", "directory for durable state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	workDir := filepath.Join(*out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	printJSON(stdout, "meta", collectMeta(workDir))
	printJSON(stdout, "workload", struct {
		Workload
		Seed    int64 `json:"seed"`
		Seconds int   `json:"seconds"`
		Trace   int   `json:"trace"`
	}{w, *seed, *seconds, *trace})

	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	var ms []metric
	if *trace == 0 {
		p, err := runPass(w, *seed, float64(*seconds), false, workDir, stdout)
		if err != nil {
			return fail(stdout, stderr, err)
		}
		res.Attempted, res.Failed = p.attempted, p.failed
		ms = p.e2e
	} else {
		half := float64(*seconds) / 2
		base, err := runPass(w, *seed, half, false, workDir, stdout)
		if err != nil {
			return fail(stdout, stderr, err)
		}
		traced, err := runPass(w, *seed, half, true, workDir, stdout)
		if err != nil {
			return fail(stdout, stderr, err)
		}
		res.Attempted, res.Failed = base.attempted+traced.attempted, base.failed+traced.failed
		ms = slices.Concat(traced.layers, []metric{base.tail},
			overhead(append(base.e2e, base.tail), append(traced.e2e, traced.tail)))
		path := filepath.Join(*out, "spans", w.Name+".csv")
		if err := writeCSV(path, traced.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(traced.spans), path)
	}
	for _, m := range ms {
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// fail reports err. A failed correctness check still ends the output
// with a result line, marked incorrect; any other error prints none.
func fail(stdout, stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "perfbench:", err)
	var ce checkError
	if errors.As(err, &ce) {
		b, _ := json.Marshal(result{Correct: false, Metrics: map[string]jsonMetric{}})
		fmt.Fprintln(stdout, string(b))
	}
	return 1
}

func printJSON(w io.Writer, label string, v any) {
	b, _ := json.Marshal(v) // plain structs of strings and numbers
	fmt.Fprintf(w, "%s: %s\n", label, b)
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-8s %-34s %16.6g %s\n", kind, m.Name, m.Value, m.Unit)
	}
}

// overhead is the traced pass's change on every end-to-end metric, as a
// fraction of the untraced pass's value.
func overhead(base, traced []metric) []metric {
	out := make([]metric, 0, len(base))
	for i, b := range base {
		v := 0.0
		if b.Value != 0 {
			v = traced[i].Value/b.Value - 1
		}
		out = append(out, metric{"overhead." + b.Name, v, "frac"})
	}
	return out
}
