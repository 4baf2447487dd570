package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/apps"
)

// cpuSeconds returns the process's user+sys CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostNow reads the host's wall clock, which only times the simulator
// itself.
func hostNow() time.Time {
	//nowlint:allow detfree -- the benchmark times its own calls into the program with this reading, and no simulated result or output of the program depends on it
	return time.Now()
}

// refCalibCPU is calibrate's median CPU time on the host the benchmark
// was defined on (a 2-vCPU Xeon VM, go1.24). See hostScale.
const refCalibCPU = 0.047

var calibSink float64

// calibrate runs a fixed reference kernel and returns the process CPU
// seconds it took. The kernel mixes what the simulator spends its host
// time on: floating-point work, heap allocation, and goroutine
// hand-offs over a channel.
func calibrate() float64 {
	c0 := cpuSeconds()
	x := 1.0
	for i := 0; i < 3_000_000; i++ {
		x = math.Sqrt(x*1.0000001 + float64(i&7))
	}
	for i := 0; i < 200; i++ {
		b := make([]float64, 8192)
		for j := range b {
			b[j] = float64(j)
		}
		x += b[i]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := 0; i < 20000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	calibSink += x
	return cpuSeconds() - c0
}

// hostScale converts a run's host CPU seconds into seconds of the
// reference host: refCalibCPU over the median of the run's calibrations.
// On a shared host the CPU time of the same work drifts by 5–10% from
// run to run with other tenants' load; the calibration kernel drifts with
// it, so the scaled figures hold steady.
func hostScale(calibs []float64) float64 {
	return refCalibCPU / median(calibs, func(c float64) float64 { return c })
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// hostSample is a snapshot of the process's host-side counters.
type hostSample struct {
	cpu    float64 // user+sys CPU seconds
	wall   time.Time
	bytes  uint64  // heap bytes allocated so far
	allocs uint64  // heap objects allocated so far
	gcCPU  float64 // CPU seconds the Go runtime attributes to GC
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var gcCPU float64
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gc[0].Value.Float64()
	}
	return hostSample{cpu: cpuSeconds(), wall: hostNow(), bytes: ms.TotalAlloc, allocs: ms.Mallocs, gcCPU: gcCPU}
}

// cellRun is one cell's outcome inside a pass, with the host CPU cost of
// the call the benchmark made into the application.
type cellRun struct {
	cell cell
	res  apps.Result
	cpu  float64 // seconds
	err  error
}

// pass is one run of a workload's cells, in order, one at a time.
type pass struct {
	cells   []cellRun
	cpu     float64 // process CPU seconds
	wall    float64 // seconds
	allocMB float64
	allocs  float64
	gcCPU   float64
}

// runPass runs the cells once. The heap is collected first, so each pass
// starts from the same state and pays only for its own garbage.
func runPass(cs []cell, in *inputs, want map[*app]float64) pass {
	runtime.GC()
	h0 := readHost()
	p := pass{cells: make([]cellRun, 0, len(cs))}
	for _, c := range cs {
		c0 := cpuSeconds()
		res, err := runCell(c, in, want[c.app])
		p.cells = append(p.cells, cellRun{c, res, cpuSeconds() - c0, err})
	}
	h1 := readHost()
	p.cpu = h1.cpu - h0.cpu
	p.wall = h1.wall.Sub(h0.wall).Seconds()
	p.allocMB = float64(h1.bytes-h0.bytes) / 1e6
	p.allocs = float64(h1.allocs - h0.allocs)
	p.gcCPU = h1.gcCPU - h0.gcCPU
	return p
}

// failed counts the pass's failed cells.
func (p pass) failed() int {
	n := 0
	for _, cr := range p.cells {
		if cr.err != nil {
			n++
		}
	}
	return n
}

// virtualMs is the geometric mean of the verified cells' simulated
// completion times.
func (p pass) virtualMs() float64 {
	var logSum float64
	n := 0
	for _, cr := range p.cells {
		if cr.err == nil {
			logSum += math.Log(cr.res.Time.Seconds() * 1e3)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// sum totals one Result field over the verified cells.
func (p pass) sum(field func(apps.Result) int64) float64 {
	var s int64
	for _, cr := range p.cells {
		if cr.err == nil {
			s += field(cr.res)
		}
	}
	return float64(s)
}

// max is sum's maximum over the verified cells.
func (p pass) max(field func(apps.Result) int64) float64 {
	var m int64
	for _, cr := range p.cells {
		if cr.err == nil && field(cr.res) > m {
			m = field(cr.res)
		}
	}
	return float64(m)
}

// setupRun is one set-up: every oracle a set of cells needs.
type setupRun struct {
	want map[*app]float64 // oracle checksum per app
	cpu  map[*app]float64 // CPU seconds per oracle
	sum  float64
}

// setup runs the sequential oracles, which also generate each
// application's inputs, and times each one. Like a pass, it starts from
// a collected heap.
func setup(as []*app, in *inputs) setupRun {
	runtime.GC()
	s := setupRun{want: map[*app]float64{}, cpu: map[*app]float64{}}
	for _, a := range as {
		c0 := cpuSeconds()
		s.want[a] = a.seq(in).Checksum
		s.cpu[a] = cpuSeconds() - c0
		s.sum += s.cpu[a]
	}
	return s
}

// runPasses runs passes until the time budget would be exceeded by
// another pass like the last one; it always runs at least one. before,
// if not nil, runs ahead of each pass, outside its measurement.
func runPasses(cs []cell, in *inputs, want map[*app]float64, seconds float64, before func()) []pass {
	start := hostNow()
	var ps []pass
	for len(ps) == 0 || hostNow().Sub(start).Seconds()+ps[len(ps)-1].wall <= seconds {
		if before != nil {
			before()
		}
		ps = append(ps, runPass(cs, in, want))
	}
	return ps
}

// median returns the median of f over xs.
func median[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
