package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	const dsmDir = "/src/internal/dsm/"
	cases := []struct {
		name  string
		stack []frame // leaf first
		want  string
	}{
		{"makeDiff", []frame{
			{"repro/internal/dsm.makeDiff", dsmDir + "page.go"},
			{"repro/internal/dsm.(*Node).serveDiffReq", dsmDir + "server.go"},
		}, "dsm.client"},
		{"decodeRecordsV2", []frame{
			{"repro/internal/dsm.(*rbuf).uv", dsmDir + "codec.go"},
			{"repro/internal/dsm.decodeRecordsV2", dsmDir + "wire.go"},
			{"repro/internal/dsm.(*Node).handleGrant", dsmDir + "lock.go"},
		}, "dsm.wire"},
		{"gcPurgePagesLocked", []frame{
			{"repro/internal/dsm.(*Node).gcPurgePagesLocked", dsmDir + "gc.go"},
			{"repro/internal/dsm.(*Node).serve", dsmDir + "server.go"},
		}, "dsm.gc"},
		{"selectgo", []frame{
			{"runtime.lock2", "/go/src/runtime/lock_futex.go"},
			{"runtime.selectgo", "/go/src/runtime/select.go"},
			{"repro/internal/dsm.(*Node).serve", dsmDir + "server.go"},
		}, "runtime.sched"},
		{"mallocgc", []frame{
			{"runtime.memclrNoHeapPointers", "/go/src/runtime/memclr_amd64.s"},
			{"runtime.mallocgc", "/go/src/runtime/malloc.go"},
			{"runtime.makeslice", "/go/src/runtime/slice.go"},
			{"repro/internal/dsm.makeDiff", dsmDir + "page.go"},
		}, "runtime.gc"},
		{"memmove under ReadF64s", []frame{
			{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"},
			{"repro/internal/dsm.(*Client).ReadF64s", dsmDir + "node.go"},
			{"repro/internal/core.(*TC).ReadF64s", "/src/internal/core/region.go"},
			{"repro/internal/apps/water.interForces", "/src/internal/apps/water/omp.go"},
		}, "dsm.client"},
		{"app kernel under stdlib leaf", []frame{
			{"math.Sqrt", "/go/src/math/sqrt.go"},
			{"repro/internal/apps/barnes.Accel", "/src/internal/apps/barnes/tree.go"},
		}, "apps"},
		{"network send", []frame{
			{"repro/internal/network.(*Endpoint).count", "/src/internal/network/network.go"},
			{"repro/internal/dsm.(*Node).send", dsmDir + "node.go"},
		}, "network"},
		{"dsm manager", []frame{
			{"repro/internal/dsm.(*Node).handleAcquire", dsmDir + "lock.go"},
		}, "dsm.server"},
		{"background mark worker", []frame{
			{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcDrain", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker.func2", "/go/src/runtime/mgc.go"},
			{"runtime.systemstack", "/go/src/runtime/asm_amd64.s"},
			{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
			{"runtime.goexit", "/go/src/runtime/asm_amd64.s"},
		}, "runtime.gc"},
		{"no program frame", []frame{
			{"runtime.memmove", "/go/src/runtime/memmove_amd64.s"},
			{"bytes.(*Buffer).Write", "/go/src/bytes/buffer.go"},
			{"runtime/pprof.(*profileBuilder).flush", "/go/src/runtime/pprof/proto.go"},
		}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attributed to %q, want %q", c.name, got, c.want)
		}
	}
}

var spin float64

// TestParseProfile round-trips a real CPU profile through the decoder:
// the samples must carry this test's own frames and sum to the profiled
// CPU time.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spin += float64(i) * 1.0000001
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	found := false
	for _, s := range samples {
		total += float64(s.ns) / 1e9
		for _, fr := range s.stack {
			if fr.fn == "repro/perfbench.TestParseProfile" && fr.file != "" {
				found = true
			}
		}
	}
	if !found || total <= 0 {
		t.Fatalf("%d samples, %.3f s: want this test's frames and positive CPU time", len(samples), total)
	}
	var split float64
	for _, v := range attributeAll(samples) {
		split += v
	}
	if d := split - total; d > 1e-9 || d < -1e-9 {
		t.Fatalf("layers sum to %.6f s, profile holds %.6f s", split, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage decoded without error")
	}
}
