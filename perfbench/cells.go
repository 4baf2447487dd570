package main

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/barnes"
	"repro/internal/apps/fft3d"
	"repro/internal/apps/lu"
	"repro/internal/apps/qsort"
	"repro/internal/apps/sweep3d"
	"repro/internal/apps/water"
	"repro/internal/core"
)

// inputs holds one parameter set per application. Every application
// generates its own input data from its Params, so a parameter set is the
// whole input of a cell.
type inputs struct {
	water  water.Params
	fft    fft3d.Params
	lu     lu.Params
	barnes barnes.Params
	qsort  qsort.Params
	sweep  sweep3d.Params
}

// paperInputs returns the paper-scale Default() parameters of every
// application. Seed 0 keeps each application's Default() seed, so the
// default run reproduces the paper-table cells; any other seed replaces
// every Params.Seed. Sweep3D has no seed: its mesh input is fixed, so it
// is the same at every seed.
func paperInputs(seed uint64) inputs {
	in := inputs{water.Default(), fft3d.Default(), lu.Default(), barnes.Default(), qsort.Default(), sweep3d.Default()}
	in.reseed(seed)
	return in
}

func (in *inputs) reseed(seed uint64) {
	if seed == 0 {
		return
	}
	in.water.Seed, in.fft.Seed, in.lu.Seed, in.barnes.Seed, in.qsort.Seed = seed, seed, seed, seed, seed
}

// app is one application wired to its public entry points.
type app struct {
	name string
	seq  func(in *inputs) apps.Result
	run  func(in *inputs, impl string, procs int) (apps.Result, error)
}

// appOf wires an application package's entry points to an app. The NOW
// and SMP implementations run the same OpenMP source through RunOMPOn.
func appOf[P any](name string, params func(*inputs) P, seq func(P) apps.Result,
	ompOn func(P, int, core.BackendKind) (apps.Result, error), tmk, mpi func(P, int) (apps.Result, error)) *app {
	return &app{
		name: name,
		seq:  func(in *inputs) apps.Result { return seq(params(in)) },
		run: func(in *inputs, impl string, procs int) (apps.Result, error) {
			p := params(in)
			switch impl {
			case "omp":
				return ompOn(p, procs, core.BackendNOW)
			case "omp-smp":
				return ompOn(p, procs, core.BackendSMP)
			case "tmk":
				return tmk(p, procs)
			case "mpi":
				return mpi(p, procs)
			}
			return apps.Result{}, fmt.Errorf("unknown implementation %q", impl)
		},
	}
}

var (
	appWater   = appOf("Water", func(in *inputs) water.Params { return in.water }, water.RunSeq, water.RunOMPOn, water.RunTmk, water.RunMPI)
	appFFT     = appOf("3D-FFT", func(in *inputs) fft3d.Params { return in.fft }, fft3d.RunSeq, fft3d.RunOMPOn, fft3d.RunTmk, fft3d.RunMPI)
	appLU      = appOf("LU", func(in *inputs) lu.Params { return in.lu }, lu.RunSeq, lu.RunOMPOn, lu.RunTmk, lu.RunMPI)
	appBarnes  = appOf("Barnes", func(in *inputs) barnes.Params { return in.barnes }, barnes.RunSeq, barnes.RunOMPOn, barnes.RunTmk, barnes.RunMPI)
	appQSORT   = appOf("QSORT", func(in *inputs) qsort.Params { return in.qsort }, qsort.RunSeq, qsort.RunOMPOn, qsort.RunTmk, qsort.RunMPI)
	appSweep3D = appOf("Sweep3D", func(in *inputs) sweep3d.Params { return in.sweep }, sweep3d.RunSeq, sweep3d.RunOMPOn, sweep3d.RunTmk, sweep3d.RunMPI)
)

// cell is one application run: App × implementation × processor count.
type cell struct {
	app   *app
	impl  string
	procs int
}

func (c cell) name() string { return fmt.Sprintf("%s.%s.p%d", c.app.name, c.impl, c.procs) }

// cross lists the cells of every app under every implementation at one
// processor count, app-major.
func cross(as []*app, impls []string, procs int) []cell {
	var cs []cell
	for _, a := range as {
		for _, impl := range impls {
			cs = append(cs, cell{a, impl, procs})
		}
	}
	return cs
}

// workload is a fixed, ordered list of cells run one at a time. README.md
// records why each workload was chosen and how steady it measured.
type workload struct {
	name  string
	cells []cell
}

var workloads = []workload{
	// Barrier-synchronized apps on the paper's 8-node NOW: the client
	// fault/diff path, barrier-epoch GC, and the codec.
	{"barrier-p8", cross([]*app{appWater, appFFT, appLU, appBarnes}, []string{"omp", "tmk"}, 8)},
	// Lock, condition-variable, and semaphore apps: the sync managers,
	// acquire-time diff fetch, and acquire-epoch GC.
	{"lock-p8", cross([]*app{appQSORT, appSweep3D}, []string{"omp", "tmk"}, 8)},
	// Past the 9-node flat threshold: tree barrier, tree-routed GC
	// consensus, sharded homes, goroutine scheduling.
	{"wide-p32", cross([]*app{appWater, appFFT, appLU, appQSORT}, []string{"omp"}, 32)},
	// The bypass: the same sources on the SMP backend and on MPI never
	// touch the DSM. QSORT/mpi is left out: its splitter's pivot balance
	// makes its virtual time swing 1.9–6.6 s from seed to seed.
	{"nodsm-p8", append(cross([]*app{appWater, appFFT, appLU, appBarnes}, []string{"omp-smp", "mpi"}, 8),
		cell{appSweep3D, "mpi", 8})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// appsOf lists the distinct applications of a set of cells in first-use
// order: the oracles a run of those cells needs.
func appsOf(cs []cell) []*app {
	var out []*app
	seen := map[*app]bool{}
	for _, c := range cs {
		if !seen[c.app] {
			seen[c.app] = true
			out = append(out, c.app)
		}
	}
	return out
}

// allCells lists every workload's cells in workload order.
func allCells() []cell {
	var cs []cell
	for _, w := range workloads {
		cs = append(cs, w.cells...)
	}
	return cs
}

// checkTol is the harness's equivalence rule: a parallel checksum must
// match the sequential oracle to this relative tolerance.
const checkTol = 1e-8

// runCell runs one cell and checks it against its oracle checksum. A
// panic in the calling goroutine is reported as the cell's error, so one
// broken cell never aborts its siblings.
func runCell(c cell, in *inputs, want float64) (res apps.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, err = c.app.run(in, c.impl, c.procs)
	if err == nil {
		err = apps.CheckClose(c.name(), res.Checksum, want, checkTol)
	}
	return res, err
}
