package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/harness"
)

// Config parameterizes the scheduler. Width and Scale shape the REPORT
// (the simulated service's capacity and workload size); ExecWorkers and
// CheckpointEvery shape only how fast the host computes it — neither
// may influence a single byte of the latency table.
type Config struct {
	// Scale is the workload size jobs run at (default harness.Test).
	Scale harness.Scale
	// Width is the simulated service's backend slot count; each slot is
	// harness.CellUnitsPerWorker weight units (default 2 slots).
	Width int
	// ExecWorkers bounds the host execution pool that actually computes
	// the jobs (default one per host CPU). Purely a wall-clock knob.
	ExecWorkers int
	// CheckpointEvery is the steady-state sampling window in jobs: after
	// each window fully drains, the scheduler records a Checkpoint and
	// asserts the goroutine census returned to baseline (default 50).
	CheckpointEvery int
	// GoroutineSlack is the census tolerance over baseline at each
	// checkpoint (default 3: the test runner's own helpers come and go).
	GoroutineSlack int
	// Runner executes one job and returns its verified result; the
	// default constructs a fresh backend per job via harness.Verified.
	// Tests swap in deterministic fakes.
	Runner func(JobClass) (apps.Result, error)
}

// Scheduler owns the shared backend capacity and serves job streams.
type Scheduler struct {
	cfg Config
}

// NewScheduler applies defaults and returns a scheduler.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Scale == "" {
		cfg.Scale = harness.Test
	}
	if cfg.Width <= 0 {
		cfg.Width = 2
	}
	if cfg.ExecWorkers <= 0 {
		cfg.ExecWorkers = runtime.NumCPU()
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.GoroutineSlack <= 0 {
		cfg.GoroutineSlack = 3
	}
	if cfg.Runner == nil {
		scale := cfg.Scale
		cfg.Runner = func(c JobClass) (apps.Result, error) {
			a, ok := harness.FindApp(c.App)
			if !ok {
				return apps.Result{}, fmt.Errorf("serve: unknown app %q", c.App)
			}
			return harness.Verified(a, scale, c.Impl, c.Procs, c.DSM)
		}
	}
	return &Scheduler{cfg: cfg}
}

// Serve draws njobs submissions from the driver, executes every job on a
// freshly constructed backend under the weighted execution pool, then
// replays the stream through the virtual-time admission model to
// produce the Report. The virtual-time queueing (Width slots) and the
// host-side execution pool (ExecWorkers) are deliberately distinct: the
// first is what the report describes, the second only how long the host
// takes to measure it.
func (s *Scheduler) Serve(d *Driver, njobs int) (*Report, error) {
	if njobs <= 0 {
		return nil, fmt.Errorf("serve: job count must be positive, got %d", njobs)
	}
	jobs := d.Draw(njobs)

	base := settleBaseline()
	pool := harness.NewWeightedPool(harness.CellUnitsPerWorker * s.cfg.ExecWorkers)

	var checkpoints []Checkpoint
	for lo := 0; lo < len(jobs); lo += s.cfg.CheckpointEvery {
		hi := lo + s.cfg.CheckpointEvery
		if hi > len(jobs) {
			hi = len(jobs)
		}
		window := jobs[lo:hi]

		// Single dispatch goroutine, fixed job-ID order: with all
		// acquires issued from one place in one order, a heavy NOW job
		// can never be starved by lighter jobs racing it for units.
		var wg sync.WaitGroup
		for _, j := range window {
			w := j.Class.SlotWeight()
			pool.Acquire(w)
			wg.Add(1)
			go func(j *Job, w int) {
				defer wg.Done()
				defer pool.Release(w)
				runOne(j, s.cfg.Runner)
			}(j, w)
		}
		wg.Wait()

		// The window has drained: every backend was Closed by its run (or
		// by the app's defer). The census must return to baseline — a
		// growing census here is exactly the constructed-but-never-reaped
		// server leak Close exists to prevent.
		census, ok := settleAt(base + s.cfg.GoroutineSlack)
		if !ok {
			return nil, fmt.Errorf("serve: goroutine leak after %d jobs: %d live, baseline %d (+%d slack)",
				hi, census, base, s.cfg.GoroutineSlack)
		}
		var peak int64
		for _, j := range window {
			if j.Result.PeakProtoBytes > peak {
				peak = j.Result.PeakProtoBytes
			}
		}
		checkpoints = append(checkpoints, Checkpoint{AfterJobs: hi, PeakProtoBytes: peak, Goroutines: census})
	}

	// Deterministic error attribution: the lowest job ID, not whichever
	// pool goroutine lost the race to report first.
	for _, j := range jobs {
		if j.Err != nil {
			return nil, fmt.Errorf("serve: job %d (%s): %w", j.ID, j.Class.Label(), j.Err)
		}
	}

	admit(jobs, harness.CellUnitsPerWorker*s.cfg.Width)

	r := &Report{
		Scale:              s.cfg.Scale,
		Seed:               d.cfg.Seed,
		Rate:               d.cfg.Rate,
		Width:              s.cfg.Width,
		Jobs:               njobs,
		Classes:            buildClasses(jobs),
		Checkpoints:        checkpoints,
		BaselineGoroutines: base,
	}
	for _, j := range jobs {
		if j.End > r.Horizon {
			r.Horizon = j.End
		}
	}
	return r, nil
}

// runOne executes one job, converting panics into job errors so a
// broken application cannot take the whole service down.
func runOne(j *Job, runner func(JobClass) (apps.Result, error)) {
	defer func() {
		if r := recover(); r != nil {
			j.Err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := runner(j.Class)
	if err != nil {
		j.Err = err
		return
	}
	j.Result = res
	j.Service = res.Time
}

// settleBaseline waits for the process goroutine count to stop falling
// (draining teardown from whatever ran before) and returns the floor.
func settleBaseline() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

// settleAt polls the goroutine count until it drops to at most want.
// The budget is generous real time with no speed assertion: full-suite
// load can only delay goroutine exit, never prevent it, so the check is
// for eventual quiescence (the deflake discipline the repo's other
// drain tests follow).
func settleAt(want int) (int, bool) {
	n := 0
	for i := 0; i < 2000; i++ {
		n = runtime.NumGoroutine()
		if n <= want {
			return n, true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return n, false
}
