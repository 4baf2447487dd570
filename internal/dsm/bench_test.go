package dsm

import (
	"math/rand"
	"testing"
)

// Per-layer benchmarks of the client fault/diff path: the diff codec and
// the interval-record codec on their own, and the two fetch round trips a
// fault makes over the simulated wire. Run with -benchmem (or read the ReportAllocs columns) to see the
// host allocation each costs.

// Sinks keep the compiler from discarding the measured calls.
var (
	diffSink  []byte
	applySink int
	recsSink  []*interval
)

// diffPages returns a twin and a copy of it with every stride-th word
// changed.
func diffPages(stride int) (data, twin []byte) {
	rnd := rand.New(rand.NewSource(1))
	twin = make([]byte, PageSize)
	rnd.Read(twin)
	data = append([]byte(nil), twin...)
	for w := 0; w < PageSize/4; w += stride {
		data[4*w] ^= 0xff
	}
	return data, twin
}

// BenchmarkMakeDiff encodes the diff a node stores when a twin retires
// (scratch encode plus one exact-size copy behind its reply header), with
// the whole page changed and with one word in 64 changed.
func BenchmarkMakeDiff(b *testing.B) {
	for _, c := range []struct {
		name   string
		stride int
	}{{"full-page", 1}, {"sparse", 64}} {
		b.Run(c.name, func(b *testing.B) {
			data, twin := diffPages(c.stride)
			var n Node
			n.mu.Lock()
			defer n.mu.Unlock()
			b.ReportAllocs()
			b.SetBytes(PageSize)
			for i := 0; i < b.N; i++ {
				diffSink = n.diffLocked(0, 0, data, twin)
			}
		})
	}
}

// BenchmarkApplyDiff applies a sparse diff to a page.
func BenchmarkApplyDiff(b *testing.B) {
	data, twin := diffPages(64)
	diff := makeDiff(nil, data, twin)
	page := append([]byte(nil), twin...)
	b.ReportAllocs()
	b.SetBytes(PageSize)
	for i := 0; i < b.N; i++ {
		applySink = applyDiff(page, diff)
	}
}

// benchRecords is a 16-record batch over an 8-node clock, the shape of a
// barrier delta (see randRecords).
func benchRecords() []*interval {
	return randRecords(rand.New(rand.NewSource(1)), 8, 16)
}

// BenchmarkEncodeRecords encodes a record batch into a reused buffer, as
// every consistency-bearing message's trailer does.
func BenchmarkEncodeRecords(b *testing.B) {
	recs := benchRecords()
	var w wbuf
	encodeRecords(&w, recs)
	b.ReportAllocs()
	b.SetBytes(int64(len(w.b)))
	for i := 0; i < b.N; i++ {
		w.b = w.b[:0]
		encodeRecords(&w, recs)
	}
	diffSink = w.b
}

// BenchmarkDecodeRecords decodes that batch back into interval records.
func BenchmarkDecodeRecords(b *testing.B) {
	var w wbuf
	encodeRecords(&w, benchRecords())
	b.ReportAllocs()
	b.SetBytes(int64(len(w.b)))
	for i := 0; i < b.N; i++ {
		r := rbuf{b: w.b}
		recsSink = decodeRecords(&r)
	}
}

// fetchBench runs op b.N times on node 1 of a two-node system, after
// setup, while node 0 — the home of the page at addr — serves its
// requests. Setup and teardown stay outside the timer.
func fetchBench(b *testing.B, setup func(n *Node, a Addr), op func(n *Node, a Addr)) {
	sys := New(Config{Procs: 2, DisableGC: true})
	a := sys.MallocPage(PageSize) // page 0 of the heap: homed on node 0
	if h := sys.Node(0).homeOf(PageID(int(a) / PageSize)); h != 0 {
		b.Fatalf("benchmark page homed on node %d, want 0", h)
	}
	sys.Register("bench", func(n *Node, _ []byte) {
		setup(n, a)
		n.Barrier()
		if n.ID() == 1 {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(n, a)
			}
			b.StopTimer()
		}
		n.Barrier()
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("bench", nil) }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFaultInRoundTrip is one whole-page fetch: node 1 drops its
// copy and read-faults it back from the home, a request and a
// PageSize-byte reply.
func BenchmarkFaultInRoundTrip(b *testing.B) {
	fetchBench(b, func(*Node, Addr) {}, func(n *Node, a Addr) {
		n.mu.Lock()
		pg := n.pageFor(PageID(int(a) / PageSize))
		pg.data, pg.state = nil, pageInvalid
		n.mu.Unlock()
		n.ReadI64(a)
	})
}

// BenchmarkDiffFetchRoundTrip is one diff fetch: node 1 re-owes the
// home's sparse write interval on the page and read-faults, a batched
// diff request and its reply applied in place.
func BenchmarkDiffFetchRoundTrip(b *testing.B) {
	var ivl *interval
	fetchBench(b, func(n *Node, a Addr) {
		if n.ID() == 0 {
			for w := 0; w < PageSize/8; w += 16 {
				n.WriteI64(a+Addr(8*w), int64(w))
			}
		}
		n.Barrier() // the home's interval closes; node 1 gets its notice
		if n.ID() == 0 {
			return
		}
		n.ReadI64(a)
		n.mu.Lock()
		ivl = n.intervals[0][len(n.intervals[0])-1]
		n.mu.Unlock()
	}, func(n *Node, a Addr) {
		n.mu.Lock()
		pg := n.pageFor(PageID(int(a) / PageSize))
		pg.missing, pg.state = append(pg.missing, ivl), pageInvalid
		n.mu.Unlock()
		n.ReadI64(a)
	})
}
