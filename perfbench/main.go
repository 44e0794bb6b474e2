// Command perfbench is the repository's open-loop serving benchmark. It
// starts an origin, enhancer replicas behind a pool, and (on live and
// vod) an edge, all in this process over loopback TCP, and drives them
// from outside with seeded open-loop load. Every operation is timed from
// when it was due, every delivered container is checked against a serial
// eager reference, and the last line of standard output is one JSON
// result:
//
//	bash perfbench/run.sh --workload live --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it also runs a traced pass on a fresh instance, reports
// the per-layer metrics and the tracing overhead, and writes the spans to
// .bench_build/perfbench/. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: live, vod or burst")
	seed := fl.Int64("seed", 1, "seed every generated input derives from")
	seconds := fl.Float64("seconds", 10, "length of the measured run")
	trace := fl.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics instead of end-to-end ones")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span and result files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := specFor(*workload, false)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d: %v\n", *workload, *seconds, *trace, err)
		return 2
	}
	// A wedged program under test must not wedge the benchmark: past this
	// limit the run fails without a result.
	limit := 150*time.Second + time.Duration(2**seconds*float64(time.Second))
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: no result after %v; the program under test is wedged\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	meta := runMeta{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	hostMeta(&meta)
	res, err := bench(sp, &meta, *out, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, &meta, res)
	if b, err := json.MarshalIndent(struct {
		Meta   *runMeta `json:"meta"`
		Result *result  `json:"result"`
	}{&meta, res}, "", "  "); err == nil {
		name := fmt.Sprintf("result-%s-seed%d-trace%d.json", *workload, *seed, *trace)
		if err := os.WriteFile(filepath.Join(*out, name), b, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setups is how many times a run sets an instance up; setup_s is their
// median, so one slow set-up does not move it.
const setups = 3

// bench sets up, measures and checks one workload.
func bench(sp spec, meta *runMeta, outDir string, log io.Writer) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var e *env
	var times []float64
	for i := 0; i < setups; i++ {
		inst, d, err := timedSetup(sp, meta.Seed, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if i < setups-1 {
			inst.close()
		} else {
			e = inst
		}
	}
	meta.SetupS = times
	runtime.GC()
	un := e.measure(meta.Seed, meta.Seconds)
	e.close()
	e.settle(un)
	meta.Passes = append(meta.Passes, describePass("untraced", un))
	res := &result{Attempted: un.attempted, Failed: un.failed, Correct: len(un.violations) == 0}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	res.Metrics = endToEnd(un, sorted[len(sorted)/2])
	if !meta.Trace {
		return res, nil
	}

	te, _, err := timedSetup(sp, meta.Seed, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	runtime.GC()
	tr := te.measure(meta.Seed, meta.Seconds)
	te.close()
	te.settle(tr)
	meta.Passes = append(meta.Passes, describePass("traced", tr))
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Correct = res.Correct && len(tr.violations) == 0
	res.Metrics = perLayer(te, tr, un)
	meta.SpanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, meta.Seed))
	if err := writeSpans(meta.SpanFile, tr.spans); err != nil {
		fmt.Fprintf(log, "perfbench: spans: %v\n", err)
	}
	return res, nil
}

// report prints a human-readable summary ahead of the result line: every
// metric with its unit, the sample counts behind each timing, and the
// run metadata as one JSON line.
func report(w io.Writer, meta *runMeta, res *result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v on %q (nproc %d, GOMAXPROCS %d, %s)\n",
		meta.Workload, meta.Seed, meta.Seconds, meta.Trace, meta.CPUModel, meta.NumCPU, meta.GOMAXPROCS, meta.GoVersion)
	for _, warn := range meta.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	for _, p := range meta.Passes {
		for _, s := range p.Samples {
			fmt.Fprintf(w, "  %-9s %-28s p50 %9.3f ms  p90 %9.3f ms  p99 %9.3f ms  n=%d\n", p.Pass, s.Name, s.P50, s.P90, s.P99, s.N)
		}
		fmt.Fprintf(w, "  %-9s host CPU steal during the pass: %.1f%%\n", p.Pass, 100*p.HostSteal)
		for _, ph := range p.Phases {
			fmt.Fprintf(w, "  %-9s phase %-22s sent %d  ok %d  failed %d\n", p.Pass, ph.Name, ph.Sent, ph.Succeeded, ph.Failed)
		}
		for _, v := range p.Violations {
			fmt.Fprintf(w, "  %-9s VIOLATION %s\n", p.Pass, v)
		}
		for _, f := range p.Failures {
			fmt.Fprintf(w, "  %-9s failed operation: %s\n", p.Pass, f)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if b, err := json.Marshal(struct {
		Meta *runMeta `json:"meta"`
	}{meta}); err == nil {
		fmt.Fprintln(w, string(b))
	}
}
