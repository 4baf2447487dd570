package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"

	"repro/internal/apps"
)

// Result fields the per-layer counters read.
func msgsOf(r apps.Result) int64   { return r.Messages }
func bytesOf(r apps.Result) int64  { return r.Bytes }
func framesOf(r apps.Result) int64 { return r.Frames }

// coalescedOf is the logical messages a cell's frame coalescing saved.
// MPI and SMP cells report no frame count, so they count none.
func coalescedOf(r apps.Result) int64 {
	if r.Frames == 0 {
		return 0
	}
	return r.Messages - r.Frames
}

// counters are the per-layer protocol counters: a name, its unit, and how
// a pass yields it from the cells' Results.
var counters = []struct {
	metricDef
	of func(pass) float64
}{
	{metricDef{"dsm.page_msgs", "count"}, sumOf(func(r apps.Result) int64 { return r.PageMsgs })},
	{metricDef{"dsm.page_MB", "MB"}, mbOf(func(r apps.Result) int64 { return r.PageBytes })},
	{metricDef{"dsm.sync_msgs", "count"}, sumOf(func(r apps.Result) int64 { return r.SyncMsgs })},
	{metricDef{"dsm.sync_MB", "MB"}, mbOf(func(r apps.Result) int64 { return r.SyncBytes })},
	{metricDef{"dsm.gc_msgs", "count"}, sumOf(func(r apps.Result) int64 { return r.GCMsgs })},
	{metricDef{"dsm.gc_MB", "MB"}, mbOf(func(r apps.Result) int64 { return r.GCBytes })},
	{metricDef{"dsm.gc_episodes", "count"}, sumOf(func(r apps.Result) int64 { return r.GCEpisodes })},
	{metricDef{"dsm.gc_epochs", "count"}, sumOf(func(r apps.Result) int64 { return r.GCEpochs })},
	{metricDef{"dsm.gc_acq_epochs", "count"}, sumOf(func(r apps.Result) int64 { return r.GCAcqEpochs })},
	{metricDef{"dsm.gc_pages_validated", "count"}, sumOf(func(r apps.Result) int64 { return r.GCPagesValidated })},
	{metricDef{"dsm.gc_pages_flushed", "count"}, sumOf(func(r apps.Result) int64 { return r.GCPagesFlushed })},
	{metricDef{"dsm.gc_validate_ratio", "ratio"}, validateRatio},
	{metricDef{"dsm.intervals_retired", "count"}, sumOf(func(r apps.Result) int64 { return r.IntervalsRetired })},
	{metricDef{"dsm.peak_interval_chain", "count"}, func(p pass) float64 { return p.max(func(r apps.Result) int64 { return r.PeakIntervalChain }) }},
	{metricDef{"dsm.peak_proto_MB", "MB"}, func(p pass) float64 { return p.max(func(r apps.Result) int64 { return r.PeakProtoBytes }) / 1e6 }},
	{metricDef{"network.frames", "count"}, sumOf(framesOf)},
	{metricDef{"network.coalesced", "count"}, sumOf(coalescedOf)},
	{metricDef{"runtime.allocs", "count"}, func(p pass) float64 { return p.allocs }},
	{metricDef{"runtime.gc_cpu_s", "s"}, func(p pass) float64 { return p.gcCPU }},
	{metricDef{"host_wall_s", "s"}, func(p pass) float64 { return p.wall }},
}

func sumOf(f func(apps.Result) int64) func(pass) float64 {
	return func(p pass) float64 { return p.sum(f) }
}

func mbOf(f func(apps.Result) int64) func(pass) float64 {
	return func(p pass) float64 { return p.sum(f) / 1e6 }
}

// validateRatio is validated / (validated + flushed) page purges, 0 when
// the pass purged no page.
func validateRatio(p pass) float64 {
	v := p.sum(func(r apps.Result) int64 { return r.GCPagesValidated })
	f := p.sum(func(r apps.Result) int64 { return r.GCPagesFlushed })
	if v+f == 0 {
		return 0
	}
	return v / (v + f)
}

// probeDefs are the layer probes' metrics, in report order.
var probeDefs = []metricDef{
	{"probe.network.sendrecv_ns", "ns"}, {"probe.network.rtt_vus", "us"}, {"probe.network.sendframe_ns", "ns"},
	{"probe.dsm.fault_ns", "ns"}, {"probe.dsm.fault_vus", "us"},
	{"probe.dsm.diff_ns", "ns"}, {"probe.dsm.diff_vus", "us"},
	{"probe.dsm.lock_ns", "ns"}, {"probe.dsm.lock_vus", "us"},
	{"probe.dsm.barrier8_ns", "ns"}, {"probe.dsm.barrier8_vus", "us"},
	{"probe.core.forkjoin_smp_ns", "ns"}, {"probe.core.forkjoin_smp_vus", "us"},
	{"probe.core.forkjoin_now_ns", "ns"}, {"probe.core.forkjoin_now_vus", "us"},
}

// perLayerDefs lists every metric of a traced run, whatever its workload:
// a span per cell of every workload and per oracle, the profile's host.*
// split, the layer probes, the protocol and runtime counters, and the
// run's own figures.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, c := range allCells() {
		defs = append(defs, metricDef{"cell." + c.name() + ".cpu_ms", "ms"}, metricDef{"cell." + c.name() + ".virtual_ms", "ms"})
	}
	for _, a := range appsOf(allCells()) {
		defs = append(defs, metricDef{"seq." + a.name + ".cpu_ms", "ms"})
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"host." + l, "s"})
	}
	defs = append(defs, probeDefs...)
	for _, c := range counters {
		defs = append(defs, c.metricDef)
	}
	return append(defs,
		metricDef{"runtime.peak_rss_MB", "MB"},
		metricDef{"trace.profiled_cpu_s", "s"},
		metricDef{"trace.overhead_cpu_s", "s"},
		metricDef{"failed_frac", "ratio"},
	)
}

// traceFiles are where a traced run keeps its report and raw CPU profile,
// so a later change can diff both against its parent's.
type traceFiles struct{ report, profile string }

func reportFiles(dir, workload string, seed uint64) traceFiles {
	base := filepath.Join(dir, fmt.Sprintf("%s.seed%d", workload, seed))
	return traceFiles{report: base + ".trace.json", profile: base + ".cpu.pprof"}
}

// tracedRun is the per-layer run. It sets up every application, runs
// untraced passes of the workload and then traced passes under one CPU
// profile (each for a quarter of the budget), runs the layer probes, and
// finally runs every workload's cells once for the cell spans. The
// counters are medians over the untraced passes.
func tracedRun(log io.Writer, w workload, in inputs, seconds float64, sc probeScale, files traceFiles) (result, error) {
	s := setup(appsOf(allCells()), &in)
	vals := map[string]float64{}
	for a, cpu := range s.cpu {
		vals["seq."+a.name+".cpu_ms"] = cpu * 1e3
	}

	plain := runPasses(w.cells, &in, s.want, seconds/4, nil)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runPasses(w.cells, &in, s.want, seconds/4, nil)
	pprof.StopCPUProfile()
	vals["runtime.peak_rss_MB"] = peakRSSMB()

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	var profiled float64
	for l, cpu := range attributeAll(samples) {
		vals["host."+l] = cpu / float64(len(traced))
		profiled += cpu / float64(len(traced))
	}
	vals["trace.profiled_cpu_s"] = profiled
	cpuOf := func(p pass) float64 { return p.cpu }
	vals["trace.overhead_cpu_s"] = median(traced, cpuOf) - median(plain, cpuOf)
	for _, c := range counters {
		vals[c.name] = median(plain, c.of)
	}

	probes, err := runProbes(sc)
	if err != nil {
		return result{}, err
	}
	for k, v := range probes {
		vals[k] = v
	}

	sweep := runPass(allCells(), &in, s.want)
	slowest := sweep.cells[0]
	for _, cr := range sweep.cells {
		vals["cell."+cr.cell.name()+".cpu_ms"] = cr.cpu * 1e3
		vals["cell."+cr.cell.name()+".virtual_ms"] = cr.res.Time.Seconds() * 1e3
		if cr.cpu > slowest.cpu {
			slowest = cr
		}
	}

	r := result{}
	var failures []string
	for _, p := range append(append(plain, traced...), sweep) {
		r.Attempted += len(p.cells)
		r.Failed += p.failed()
		logFailures(log, p)
		for _, cr := range p.cells {
			if cr.err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", cr.cell.name(), cr.err))
			}
		}
	}
	r.Correct = r.Failed == 0
	vals["failed_frac"] = float64(r.Failed) / float64(r.Attempted)
	r.Metrics = fill(perLayerDefs(), vals)

	fmt.Fprintf(log, "perfbench %s traced: %d untraced + %d traced passes; profiled %.3f s CPU per pass, overhead %+.3f s\n",
		w.name, len(plain), len(traced), profiled, vals["trace.overhead_cpu_s"])
	for _, l := range layers {
		fmt.Fprintf(log, "  host.%-14s %8.3f s  %5.1f%%\n", l, vals["host."+l], 100*vals["host."+l]/profiled)
	}
	fmt.Fprintf(log, "  slowest cell: %s (%.0f ms CPU)\n", slowest.cell.name(), slowest.cpu*1e3)
	if err := writeTrace(files, prof.Bytes(), r, slowest.cell.name(), failures); err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "  report %s\n  profile %s\n", files.report, files.profile)
	return r, nil
}

// writeTrace keeps the traced run's report and raw CPU profile.
func writeTrace(files traceFiles, profile []byte, r result, slowest string, failures []string) error {
	if err := os.MkdirAll(filepath.Dir(files.report), 0o755); err != nil {
		return err
	}
	sort.Strings(failures)
	rep, err := json.MarshalIndent(struct {
		result
		SlowestCell string   `json:"slowest_cell"`
		Failures    []string `json:"failures"`
	}{r, slowest, failures}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(files.report, rep, 0o644); err != nil {
		return err
	}
	return os.WriteFile(files.profile, profile, 0o644)
}
