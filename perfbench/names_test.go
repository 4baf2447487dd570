package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the names are checked against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameMetrics fails unless the emitted metrics have exactly the declared
// names and units.
func sameMetrics(t *testing.T, kind string, declared []struct{ Name, Unit string }, emitted map[string]metric) {
	t.Helper()
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	for name, m := range emitted {
		if u, ok := want[name]; !ok {
			t.Errorf("%s metric %q is emitted but not in BENCHMARK.json", kind, name)
		} else if u != m.Unit {
			t.Errorf("%s metric %q: unit %q, BENCHMARK.json says %q", kind, name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := emitted[name]; !ok {
			t.Errorf("%s metric %q is in BENCHMARK.json but not emitted", kind, name)
		}
	}
	if len(declared) != len(want) {
		t.Errorf("%s metrics: BENCHMARK.json names one twice", kind)
	}
}

// TestEmittedNamesMatchBenchmarkJSON runs an end-to-end and a traced run
// at the applications' test scale and checks their metrics, and the
// workload list, against BENCHMARK.json.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := fmtList(names), fmtList(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}

	w, _ := findWorkload("barrier-p8")
	e2e := endToEndRun(io.Discard, w, smallInputs(0), 1e-9, 1)
	if !e2e.Correct {
		t.Fatalf("end-to-end run failed %d of %d cells", e2e.Failed, e2e.Attempted)
	}
	sameMetrics(t, "end_to_end", spec.EndToEnd, e2e.Metrics)

	tiny := probeScale{netOps: 100, pages: 8, lockOps: 8, barriers: 8, forks: 8}
	dir := t.TempDir()
	tr, err := tracedRun(io.Discard, w, smallInputs(0), 1e-9, tiny, reportFiles(dir, w.name, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Correct {
		t.Fatalf("traced run failed %d of %d cells", tr.Failed, tr.Attempted)
	}
	sameMetrics(t, "per_layer", spec.PerLayer, tr.Metrics)
	for _, f := range []string{"barrier-p8.seed0.trace.json", "barrier-p8.seed0.cpu.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("traced run kept no %s: %v", f, err)
		}
	}
}

func fmtList(xs []string) string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	b, _ := json.Marshal(s)
	return string(b)
}
