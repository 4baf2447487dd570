package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/network"
	"repro/internal/sim"
)

// The layer probes time one operation of each layer from outside, through
// public calls only: host nanoseconds per operation (wall clock) and
// virtual microseconds per operation (the simulated clocks).

// probe is one layer probe's result.
type probe struct {
	ns  float64 // host nanoseconds per operation
	vus float64 // virtual microseconds per operation
}

func perOp(wall time.Duration, virt sim.Time, ops int) probe {
	return probe{ns: float64(wall.Nanoseconds()) / float64(ops), vus: virt.Micros() / float64(ops)}
}

// probeSendRecv times network.Switch SendAt→Recv: one goroutine plays
// both endpoints of a 2-node switch and bounces a 64-byte message. Its
// virtual figure is the round trip.
func probeSendRecv(rounds int) probe {
	sw := network.NewSwitch(2, sim.DefaultPlatform().UDP)
	defer sw.Shutdown()
	var c0, c1 sim.Clock
	e0, e1 := sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
	payload := make([]byte, 64)
	start := hostNow()
	for i := 0; i < rounds; i++ {
		e0.SendAt(1, 1, network.ClassRequest, payload, c0.Now())
		m := e1.Recv(network.ClassRequest)
		e1.SendAt(0, 2, network.ClassReply, payload, m.Arrive)
		e0.Recv(network.ClassReply)
	}
	return probe{ns: float64(hostNow().Sub(start).Nanoseconds()) / float64(2*rounds), vus: c0.Now().Micros() / float64(rounds)}
}

// probeSendFrameNs times network.Switch SendFrameAt→RecvRaw with a
// 4-part, 64-byte frame, in host nanoseconds per frame.
func probeSendFrameNs(ops int) float64 {
	sw := network.NewSwitch(2, sim.DefaultPlatform().UDP)
	defer sw.Shutdown()
	var c0, c1 sim.Clock
	e0, e1 := sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
	payload := make([]byte, 64)
	parts := []network.FramePart{{Type: 1, Bytes: 16}, {Type: 2, Bytes: 16}, {Type: 3, Bytes: 16}, {Type: 4, Bytes: 16}}
	start := hostNow()
	for i := 0; i < ops; i++ {
		//nowlint:allow servernoblock -- no protocol server runs here: one goroutine owns both endpoints and receives each frame before sending the next, so the request queue never holds more than one frame
		e0.SendFrameAt(1, 1, network.ClassRequest, payload, parts, 0)
		e1.RecvRaw(network.ClassRequest)
	}
	return float64(hostNow().Sub(start).Nanoseconds()) / float64(ops)
}

// runDSM runs body as a parallel region on every node of a fresh system.
func runDSM(cfg dsm.Config, body func(sys *dsm.System) dsm.RegionFunc) error {
	sys := dsm.New(cfg)
	defer sys.Close()
	sys.Register("probe", body(sys))
	return sys.Run(func(n *dsm.Node) { n.RunParallel("probe", nil) })
}

// probeFaultDiff times, on a 2-node system whose pages are all homed at
// node 0, node 1's cold read faults of `pages` remote pages and then its
// diff fetches after node 0 wrote one word of each. GC is off so the
// second read fetches diffs instead of refetching flushed pages.
func probeFaultDiff(pages int) (fault, diff probe, err error) {
	err = runDSM(dsm.Config{Procs: 2, DisableGC: true, HomePolicy: dsm.HomePolicyNode0}, func(sys *dsm.System) dsm.RegionFunc {
		base := sys.MallocPage(pages * dsm.PageSize)
		readAll := func(n *dsm.Node) probe {
			t0, w0 := n.Now(), hostNow()
			for i := 0; i < pages; i++ {
				_ = n.ReadI64(base + dsm.Addr(i*dsm.PageSize))
			}
			return perOp(hostNow().Sub(w0), n.Now()-t0, pages)
		}
		return func(n *dsm.Node, _ []byte) {
			if n.ID() == 1 {
				fault = readAll(n)
			}
			n.Barrier()
			if n.ID() == 0 {
				for i := 0; i < pages; i++ {
					n.WriteI64(base+dsm.Addr(i*dsm.PageSize), int64(i))
				}
			}
			n.Barrier()
			if n.ID() == 1 {
				diff = readAll(n)
			}
			n.Barrier()
		}
	})
	return fault, diff, err
}

// probeLock times a remote Acquire/Release: node 1 of a 2-node system
// takes `ops` distinct locks whose manager and token holder is node 0, so
// every acquire is a 2-message round trip.
func probeLock(ops int) (p probe, err error) {
	err = runDSM(dsm.Config{Procs: 2}, func(*dsm.System) dsm.RegionFunc {
		return func(n *dsm.Node, _ []byte) {
			if n.ID() != 1 {
				return
			}
			t0, w0 := n.Now(), hostNow()
			for i := 0; i < ops; i++ {
				n.Acquire(2 * i) // even ids are managed by node 0
				n.Release(2 * i)
			}
			p = perOp(hostNow().Sub(w0), n.Now()-t0, ops)
		}
	})
	return p, err
}

// probeBarrier8 times an 8-node barrier, measured at the last node.
func probeBarrier8(ops int) (p probe, err error) {
	err = runDSM(dsm.Config{Procs: 8}, func(*dsm.System) dsm.RegionFunc {
		return func(n *dsm.Node, _ []byte) {
			n.Barrier() // everyone running
			t0, w0 := n.Now(), hostNow()
			for i := 0; i < ops; i++ {
				n.Barrier()
			}
			if n.ID() == 7 {
				p = perOp(hostNow().Sub(w0), n.Now()-t0, ops)
			}
		}
	})
	return p, err
}

// probeForkJoin times an empty parallel region of 8 threads on a core
// backend.
func probeForkJoin(backend core.BackendKind, ops int) (probe, error) {
	prog := core.NewProgram(core.Config{Threads: 8, Backend: backend})
	defer prog.Close()
	prog.RegisterRegion("empty", func(*core.TC) {})
	var wall time.Duration
	err := prog.Run(func(m *core.MC) {
		w0 := hostNow()
		for i := 0; i < ops; i++ {
			m.Parallel("empty", nil)
		}
		wall = hostNow().Sub(w0)
	})
	return perOp(wall, prog.Elapsed(), ops), err
}

// probeScale sets the probes' operation counts; tests shrink it.
type probeScale struct {
	netOps, pages, lockOps, barriers, forks int
}

var paperProbes = probeScale{netOps: 20000, pages: 1000, lockOps: 2000, barriers: 2000, forks: 1000}

// runProbes runs every layer probe and returns its metrics.
func runProbes(sc probeScale) (map[string]float64, error) {
	out := map[string]float64{}
	put := func(name string, p probe) {
		out[name+"_ns"], out[name+"_vus"] = p.ns, p.vus
	}
	sr := probeSendRecv(sc.netOps)
	out["probe.network.sendrecv_ns"], out["probe.network.rtt_vus"] = sr.ns, sr.vus
	out["probe.network.sendframe_ns"] = probeSendFrameNs(sc.netOps)
	fault, diff, err := probeFaultDiff(sc.pages)
	if err != nil {
		return nil, fmt.Errorf("fault/diff probe: %w", err)
	}
	put("probe.dsm.fault", fault)
	put("probe.dsm.diff", diff)
	lock, err := probeLock(sc.lockOps)
	if err != nil {
		return nil, fmt.Errorf("lock probe: %w", err)
	}
	put("probe.dsm.lock", lock)
	bar, err := probeBarrier8(sc.barriers)
	if err != nil {
		return nil, fmt.Errorf("barrier probe: %w", err)
	}
	put("probe.dsm.barrier8", bar)
	for _, b := range []struct {
		name string
		kind core.BackendKind
	}{{"smp", core.BackendSMP}, {"now", core.BackendNOW}} {
		fj, err := probeForkJoin(b.kind, sc.forks)
		if err != nil {
			return nil, fmt.Errorf("fork/join probe on %s: %w", b.name, err)
		}
		put("probe.core.forkjoin_"+b.name, fj)
	}
	return out, nil
}
