// Command perfbench is the repository's benchmark. It runs one workload
// — a fixed list of application cells (App × implementation × processor
// count) at paper scale — in a closed loop with one client: the cells run
// one at a time, in order, in one process, and every cell is checked
// against its sequential oracle. It reports the simulated (virtual) clock
// and the host clock end to end, or, with --trace 1, per layer.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload barrier-p8 --seed 0 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 5

// deadline bounds a whole run, so a wedged cell cannot hang the caller.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 0, "input seed; 0 keeps every application's Default() seed")
	seconds := flag.Float64("seconds", 20, "measurement time budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end run")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's report and CPU profile")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, deadline)
		os.Exit(3)
	})

	in := paperInputs(*seed)
	var r result
	if *trace == 1 {
		var err error
		r, err = tracedRun(os.Stdout, w, in, *seconds, paperProbes, reportFiles(*out, w.name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	} else {
		r = endToEndRun(os.Stdout, w, in, *seconds, setupReps)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEndDefs are the metrics of an untraced run. failed_frac, the
// seventh end-to-end figure, is failed/attempted of the output line: it
// is 0 on a good run, and a metric the driver bounds must never be 0.
var endToEndDefs = []metricDef{
	{"virtual_ms", "ms"},
	{"msgs", "count"},
	{"wire_MB", "MB"},
	{"host_cpu_s", "s"},
	{"alloc_MB", "MB"},
	{"setup_s", "s"},
}

// fill builds a result's metrics from values keyed by name, which must
// hold exactly the defined metrics.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	if len(vals) != len(defs) {
		panic(fmt.Sprintf("perfbench: %d metric values for %d metrics", len(vals), len(defs)))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// endToEndRun sets up reps times, then runs passes of the workload for
// the time budget, and reports each metric as its median over the passes
// (setup_s over the set-ups). A calibration runs before each set-up and
// pass, and the two host CPU figures are scaled by them (hostScale).
func endToEndRun(log io.Writer, w workload, in inputs, seconds float64, reps int) result {
	var setups []setupRun
	var calibs []float64
	calibrateOnce := func() { calibs = append(calibs, calibrate()) }
	for i := 0; i < reps; i++ {
		calibrateOnce()
		setups = append(setups, setup(appsOf(w.cells), &in))
	}
	passes := runPasses(w.cells, &in, setups[0].want, seconds, calibrateOnce)
	scale := hostScale(calibs)
	vals := map[string]float64{
		"virtual_ms": median(passes, pass.virtualMs),
		"msgs":       median(passes, func(p pass) float64 { return p.sum(msgsOf) }),
		"wire_MB":    median(passes, func(p pass) float64 { return p.sum(bytesOf) / 1e6 }),
		"host_cpu_s": median(passes, func(p pass) float64 { return p.cpu }) * scale,
		"alloc_MB":   median(passes, func(p pass) float64 { return p.allocMB }),
		"setup_s":    median(setups, func(s setupRun) float64 { return s.sum }) * scale,
	}
	r := result{Metrics: fill(endToEndDefs, vals)}
	for _, p := range passes {
		r.Attempted += len(p.cells)
		r.Failed += p.failed()
		logFailures(log, p)
	}
	r.Correct = r.Failed == 0
	fmt.Fprintf(log, "perfbench %s: %d cells x %d passes, %d set-ups; medians (host CPU scaled by %.4f to the reference host):\n",
		w.name, len(w.cells), len(passes), reps, scale)
	for _, d := range endToEndDefs {
		fmt.Fprintf(log, "  %-12s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	fmt.Fprintf(log, "  %-12s %14.4f (%d of %d cell runs)\n", "failed_frac", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	return r
}

// logFailures names every failed cell of a pass.
func logFailures(log io.Writer, p pass) {
	for _, cr := range p.cells {
		if cr.err != nil {
			fmt.Fprintf(log, "FAILED cell %s: %v\n", cr.cell.name(), cr.err)
		}
	}
}
