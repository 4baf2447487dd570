package dsm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// rawWord reads int64 word w of node n's private copy of page pid as it
// sits in memory, bypassing the protocol: no fault, no fetch.
func rawWord(t *testing.T, n *Node, pid PageID, w int) int64 {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	pg := n.pages[pid]
	if pg == nil || pg.data == nil {
		t.Errorf("node %d holds no copy of page %d", n.id, pid)
		return 0
	}
	return int64(binary.LittleEndian.Uint64(pg.data[8*w:]))
}

// forceGCRefetch drives node n's GC refetch wave for page pid: the page
// is marked as flushed with dropped notices (page.refetch) and purged
// under a gated floor its home has not purged, so the collector rebuilds
// it from a whole-page fetch of the home's copy plus the covered diffs.
func forceGCRefetch(t *testing.T, n *Node, pid PageID) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	pg := n.pageFor(pid)
	if pg.data != nil || len(pg.missing) == 0 {
		t.Fatalf("node %d page %d: want an unfetched page owing notices", n.id, pid)
	}
	pg.refetch = true
	n.gcPurgePagesLocked(&n.c0, n.vc.clone(), nil, false)
	if pg.data == nil || len(pg.missing) != 0 || pg.refetch {
		t.Fatalf("node %d page %d: GC purge did not refetch the page", n.id, pid)
	}
}

// TestPageOwnership pins the ownership rule behind zero-copy decoding: a
// page reply's bytes become the requester's private copy as they are, so
// the reply must never share memory with the home's copy. On two nodes,
// with one page homed on each, the requester writes its fetched copy
// without changing the home's, and then the home writes its own without
// changing the requester's — for a copy taken by the fault path and for
// one rebuilt by the GC refetch wave.
func TestPageOwnership(t *testing.T) {
	for _, refetch := range []bool{false, true} {
		name := "fault"
		if refetch {
			name = "gc-refetch"
		}
		t.Run(name, func(t *testing.T) {
			sys := New(Config{Procs: 2, DisableGC: true})
			const span = 2 * HomeBlockPages
			base := sys.MallocPage(span * PageSize)
			// homed[h] is a page whose home is node h.
			var homed [2]PageID
			found := [2]bool{}
			for p := 0; p < span; p++ {
				pid := PageID(int(base)/PageSize + p)
				if h := sys.Node(0).homeOf(pid); !found[h] {
					homed[h], found[h] = pid, true
				}
			}
			if !found[0] || !found[1] {
				t.Fatalf("no page homed on each node: %v", homed)
			}
			const words = PageSize / 8
			addr := func(pid PageID, w int) Addr { return Addr(int(pid)*PageSize + 8*w) }
			val := func(pid PageID, w int) int64 { return int64(pid)<<20 | int64(w) }
			sys.Register("own", func(n *Node, _ []byte) {
				me := n.ID()
				mine, theirs := homed[me], homed[1-me]
				other := sys.Node(1 - me)
				// The home fills its page.
				for w := 0; w < words; w++ {
					n.WriteI64(addr(mine, w), val(mine, w))
				}
				n.Barrier()
				// The requester takes its copy over the wire.
				if refetch {
					forceGCRefetch(t, n, theirs)
				}
				for w := 0; w < words; w++ {
					if got := n.ReadI64(addr(theirs, w)); got != val(theirs, w) {
						t.Errorf("node %d page %d word %d = %d, want %d", me, theirs, w, got, val(theirs, w))
						break
					}
				}
				n.Barrier()
				// The requester writes its copy; the home's stays put.
				n.WriteI64(addr(theirs, 0), -1)
				if got := rawWord(t, other, theirs, 0); got != val(theirs, 0) {
					t.Errorf("requester %d's write reached home %d's copy of page %d: word 0 = %d", me, 1-me, theirs, got)
				}
				n.Barrier()
				// The home writes its copy; the requester's stays put.
				n.WriteI64(addr(mine, 1), -2)
				if got := rawWord(t, other, mine, 1); got != val(mine, 1) {
					t.Errorf("home %d's write reached requester %d's copy of page %d: word 1 = %d", me, 1-me, mine, got)
				}
				n.Barrier()
			})
			if err := sys.Run(func(n *Node) { n.RunParallel("own", nil) }); err != nil {
				t.Fatal(err)
			}
			if refetch {
				if st := sys.TotalStats(); st.GCPagesValidated < 2 {
					t.Errorf("GC validated %d pages, want the 2 refetched ones", st.GCPagesValidated)
				}
			}
		})
	}
}

// checkFramesDisjoint asserts that no two page-sized buffers held by the
// given nodes — live copies, twins, and free-list frames — share memory.
// A recycled frame still referenced elsewhere would show up here as two
// overlapping spans.
func checkFramesDisjoint(t *testing.T, nodes ...*Node) int {
	t.Helper()
	type span struct {
		lo, hi uintptr
		what   string
	}
	var spans []span
	add := func(b []byte, what string) {
		if b == nil {
			return
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		spans = append(spans, span{lo, lo + uintptr(cap(b)), what})
	}
	free := 0
	for _, n := range nodes {
		n.mu.Lock()
		for _, pg := range n.pages {
			if pg != nil {
				add(pg.data, fmt.Sprintf("node %d page %d copy", n.id, pg.id))
				add(pg.twin, fmt.Sprintf("node %d page %d twin", n.id, pg.id))
			}
		}
		for i, f := range n.frames {
			add(f, fmt.Sprintf("node %d free frame %d", n.id, i))
		}
		free += len(n.frames)
		n.mu.Unlock()
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Errorf("%s shares memory with %s", spans[i].what, spans[i-1].what)
		}
	}
	return free
}

// TestGCRecycledFramesNeverAlias churns twins and GC flushes with a
// collection at every barrier, under both purge policies, so page frames
// cycle through the per-node free list: twins freed when their diffs are
// encoded, copies discarded by flushes, zero pages materialized late from
// recycled frames. Nodes write interleaved 16-word blocks of shared
// pages (false sharing, so pages carry several writers' diffs), and
// pages go idle for whole rounds so stale copies get flushed. Every read
// is checked against a sequential model, and after every round each
// node's live copies, twins and free frames must be pairwise disjoint.
func TestGCRecycledFramesNeverAlias(t *testing.T) {
	const (
		procs  = 4
		pages  = 2 * HomeBlockPages // two home blocks
		block  = 16                 // int32 words per write block
		rounds = 12
		words  = pages * PageSize / 4
	)
	blocks := words / block
	blocksPerPage := PageSize / 4 / block
	// Round r writes block k iff its page is active (page p first turns
	// active in round p/2, so late pages are materialized from recycled
	// frames, and each page idles one round in three) and the block is
	// picked. A page has two writers, taking alternate blocks; the pair
	// moves on every three rounds, leaving the old writers' copies to go
	// stale.
	active := func(r, p int) bool { return r >= p/2 && (p+r)%3 != 0 }
	picked := func(r, k int) bool { return (k*7+r*3)%5 < 3 }
	owner := func(r, k int) int { return (k/blocksPerPage + r/3 + k%2) % procs }
	value := func(r, k, i int) int32 { return int32(r<<24 | k<<8 | i) }
	// model[r] is the memory after round r.
	model := make([][]int32, rounds)
	cur := make([]int32, words)
	for r := 0; r < rounds; r++ {
		for k := 0; k < blocks; k++ {
			if active(r, k/blocksPerPage) && picked(r, k) {
				for i := 0; i < block; i++ {
					cur[k*block+i] = value(r, k, i)
				}
			}
		}
		model[r] = append([]int32(nil), cur...)
	}

	for _, policy := range []GCPolicy{GCPolicyFlush, GCPolicyValidateHot} {
		t.Run(policy.String(), func(t *testing.T) {
			sys := New(Config{Procs: procs, GCPolicy: policy})
			base := sys.MallocPage(4 * words)
			sawFree := make([]bool, procs)
			sys.Register("churn", func(n *Node, _ []byte) {
				me := n.ID()
				buf := make([]int32, block)
				for r := 0; r < rounds; r++ {
					for k := 0; k < blocks; k++ {
						if active(r, k/blocksPerPage) && picked(r, k) && owner(r, k) == me {
							for i := range buf {
								buf[i] = value(r, k, i)
							}
							n.WriteI32s(base+Addr(4*k*block), buf)
						}
					}
					n.Barrier()
					// Each node reads a quarter of the pages in use back;
					// the rest go stale and are left for the collector.
					for p := 0; p < pages; p++ {
						if r < p/2 || (p+r+me)%4 != 0 {
							continue
						}
						lo := p * PageSize / 4
						got := make([]int32, PageSize/4)
						n.ReadI32s(base+Addr(4*lo), got)
						for i, v := range got {
							if want := model[r][lo+i]; v != want {
								t.Errorf("node %d round %d word %d = %#x, want %#x", me, r, lo+i, v, want)
								break
							}
						}
					}
					if checkFramesDisjoint(t, n) > 0 {
						sawFree[me] = true
					}
					n.Barrier()
				}
			})
			final := make([]int32, words)
			if err := sys.Run(func(n *Node) {
				n.RunParallel("churn", nil)
				n.ReadI32s(base, final)
			}); err != nil {
				t.Fatal(err)
			}
			for i, v := range final {
				if want := model[rounds-1][i]; v != want {
					t.Fatalf("final word %d = %#x, want %#x", i, v, want)
				}
			}
			nodes := make([]*Node, procs)
			for i := range nodes {
				nodes[i] = sys.Node(i)
			}
			checkFramesDisjoint(t, nodes...)
			st := sys.TotalStats()
			t.Logf("%d GC epochs, %d diffs, %d copies flushed, %d validated, %d twins collected",
				st.GCEpochs, st.DiffsCreated, st.GCPagesFlushed, st.GCPagesValidated, st.TwinsCollected)
			if st.GCEpochs == 0 || st.DiffsCreated == 0 {
				t.Errorf("no churn: %d GC epochs, %d diffs", st.GCEpochs, st.DiffsCreated)
			}
			if policy == GCPolicyFlush && st.GCPagesFlushed == 0 {
				t.Error("flush policy discarded no copies")
			}
			for i, ok := range sawFree {
				if !ok {
					t.Errorf("node %d never held a free frame: the free list was not exercised", i)
				}
			}
		})
	}
}
