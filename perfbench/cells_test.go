package main

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/barnes"
	"repro/internal/apps/fft3d"
	"repro/internal/apps/lu"
	"repro/internal/apps/qsort"
	"repro/internal/apps/sweep3d"
	"repro/internal/apps/water"
)

// smallInputs is paperInputs at the applications' test scale.
func smallInputs(seed uint64) inputs {
	in := inputs{water.Small(), fft3d.Small(), lu.Small(), barnes.Small(), qsort.Small(), sweep3d.Small()}
	in.reseed(seed)
	return in
}

// fakeApp is an application whose oracle returns 1 and whose parallel run
// is run.
func fakeApp(name string, run func() (apps.Result, error)) *app {
	return &app{
		name: name,
		seq:  func(*inputs) apps.Result { return apps.Result{Checksum: 1} },
		run:  func(*inputs, string, int) (apps.Result, error) { return run() },
	}
}

// TestFailedCellsAreCountedAndNamed runs a workload whose cells error,
// mismatch their oracle, and panic between good ones: each failure counts
// once, names its cell, and leaves its siblings' results intact.
func TestFailedCellsAreCountedAndNamed(t *testing.T) {
	good := fakeApp("Good", func() (apps.Result, error) { return apps.Result{Checksum: 1, Time: 5e6}, nil })
	errs := fakeApp("Errs", func() (apps.Result, error) { return apps.Result{}, errors.New("node 3 aborted") })
	wrong := fakeApp("Wrong", func() (apps.Result, error) { return apps.Result{Checksum: 1.001, Time: 5e6}, nil })
	boom := fakeApp("Boom", func() (apps.Result, error) { panic("index out of range") })
	w := workload{name: "faulty", cells: []cell{
		{good, "omp", 2}, {errs, "omp", 2}, {good, "tmk", 2}, {wrong, "omp", 2}, {boom, "mpi", 2}, {good, "mpi", 2},
	}}

	var log strings.Builder
	r := endToEndRun(&log, w, smallInputs(0), 1e-9, 1)
	if r.Correct || r.Attempted != 6 || r.Failed != 3 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false 6 3", r.Correct, r.Attempted, r.Failed)
	}
	for _, name := range []string{"Errs.omp.p2", "Wrong.omp.p2", "Boom.mpi.p2"} {
		if !strings.Contains(log.String(), "FAILED cell "+name+":") {
			t.Errorf("log does not name failed cell %s:\n%s", name, log.String())
		}
	}
	if strings.Contains(log.String(), "FAILED cell Good") {
		t.Errorf("a good cell was reported failed:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "0.5000 (3 of 6 cell runs)") {
		t.Errorf("log does not report failed_frac 0.5:\n%s", log.String())
	}
	if got := r.Metrics["virtual_ms"].Value; got != 5 {
		t.Errorf("virtual_ms = %v, want 5 (the verified cells only)", got)
	}
}

func TestSeedSetsEveryAppSeed(t *testing.T) {
	def := paperInputs(0)
	if def.water.Seed != water.Default().Seed {
		t.Fatalf("seed 0 changed Water's seed to %d", def.water.Seed)
	}
	in := paperInputs(99991)
	for name, got := range map[string]uint64{
		"Water": in.water.Seed, "3D-FFT": in.fft.Seed, "LU": in.lu.Seed, "Barnes": in.barnes.Seed, "QSORT": in.qsort.Seed,
	} {
		if got != 99991 {
			t.Errorf("%s seed = %d, want 99991", name, got)
		}
	}
	if in.sweep != def.sweep {
		t.Error("Sweep3D's fixed input changed with the seed")
	}
}
