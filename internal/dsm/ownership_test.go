package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/network"
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

// owedNotices returns the write notices node n's copy of page pid owes.
func owedNotices(n *Node, pid PageID) []*interval {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*interval(nil), n.pageFor(pid).missing...)
}

// storedDiff returns creator node n's stored diff of its interval seq for
// page pid (nil if none is stored).
func storedDiff(n *Node, pid PageID, seq int) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.intervals[n.id][seq-n.ivlBase[n.id]].diffs[pid]
}

// rawDiffReply sends node n's msgDiffReq for the given seqs of creator's
// diffs of page pid, in the order given, and returns the reply payload as
// it arrives, bypassing the fault path.
func rawDiffReply(n *Node, creator int, pid PageID, seqs ...int) []byte {
	var w wbuf
	w.u32(uint32(pid))
	w.u32(uint32(len(seqs)))
	for _, s := range seqs {
		w.u32(uint32(s))
	}
	n.ep.SendAt(creator, msgDiffReq, network.ClassRequest, w.b, n.c0.clk.Now())
	return n.c0.recvReply(msgDiffRep, 0).Payload
}

// TestStoredDiffServedAsIs pins the sharing behind sending stored diffs:
// a request for one interval is answered with the creator's stored diff
// itself, so every requester reads the same bytes and none may write
// them. The creator rewrites a whole page (one full-page run), two
// requesters apply that diff in turn and then write their own copies;
// the creator's stored diff, its copy and both requesters' copies must
// each hold exactly their own writes.
func TestStoredDiffServedAsIs(t *testing.T) {
	sys := New(Config{Procs: 3, DisableGC: true})
	base := sys.MallocPage(PageSize)
	pid := PageID(int(base) / PageSize)
	const words = PageSize / 8
	addr := func(w int) Addr { return base + Addr(8*w) }
	val := func(w int) int64 { return int64(w+1)<<32 | int64(w+1) }
	creator := sys.Node(0)
	var served, snapshot []byte
	sys.Register("share", func(n *Node, _ []byte) {
		me := n.ID()
		n.ReadI64(addr(0)) // every node holds a (zero) copy
		n.Barrier()
		if me == 0 {
			for w := 0; w < words; w++ {
				n.WriteI64(addr(w), val(w))
			}
		}
		n.Barrier() // the creator's interval closes; 1 and 2 owe its diff
		if me == 1 {
			owed := owedNotices(n, pid)
			if len(owed) != 1 || owed[0].creator != 0 {
				t.Errorf("node 1 owes %d notices, want the creator's one", len(owed))
			} else {
				served = rawDiffReply(n, 0, pid, owed[0].seq)
				stored := storedDiff(creator, pid, owed[0].seq)
				if unsafe.SliceData(served) != unsafe.SliceData(stored) || len(served) != len(stored) {
					t.Errorf("one-interval reply is not the stored diff: reply %d bytes at %p, stored %d bytes at %p",
						len(served), unsafe.SliceData(served), len(stored), unsafe.SliceData(stored))
				}
				snapshot = append([]byte(nil), stored...)
			}
		}
		// The requesters apply the diff one after the other, each through
		// the fault path, so the second reads what the first was served.
		for r := 1; r <= 2; r++ {
			if me == r {
				for w := 0; w < words; w++ {
					if got := n.ReadI64(addr(w)); got != val(w) {
						t.Errorf("node %d word %d = %#x after applying the diff, want %#x", me, w, got, val(w))
						break
					}
				}
			}
			n.Barrier()
		}
		// Each requester writes its own copy.
		if me > 0 {
			n.WriteI64(addr(me-1), -int64(me))
		}
		n.Barrier()
		if me != 0 {
			return
		}
		// Raw copies, as written: node 0 kept the creator's values, node r
		// holds -r at word r-1 and nothing else of the other requester's.
		for r := 0; r < 3; r++ {
			for w := 0; w < 2; w++ {
				want := val(w)
				if r > 0 && w == r-1 {
					want = -int64(r)
				}
				if got := rawWord(t, sys.Node(r), pid, w); got != want {
					t.Errorf("node %d's copy word %d = %#x, want %#x", r, w, got, want)
				}
			}
		}
		if !bytes.Equal(served, snapshot) {
			t.Error("the stored diff changed after requesters applied it and wrote their copies")
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("share", nil) }); err != nil {
		t.Fatal(err)
	}
}

// TestMultiIntervalDiffReplyEncoding pins the multi-interval msgDiffRep:
// [pid][count], then [seq][len][runs] per interval in ascending seq
// order whatever order the request named them in, with each interval's
// runs exactly the diff its writes made.
func TestMultiIntervalDiffReplyEncoding(t *testing.T) {
	sys := New(Config{Procs: 2, DisableGC: true})
	base := sys.MallocPage(PageSize)
	pid := PageID(int(base) / PageSize)
	// The creator writes words 0..15, then words 100..115 in a second
	// interval; images[i] is the page after interval i.
	spans := [][2]int{{0, 16}, {100, 116}}
	val := func(w int) int64 { return int64(w+1)<<32 | int64(w+1) }
	images := [][]byte{make([]byte, PageSize)}
	for _, s := range spans {
		img := append([]byte(nil), images[len(images)-1]...)
		for w := s[0]; w < s[1]; w++ {
			binary.LittleEndian.PutUint64(img[8*w:], uint64(val(w)))
		}
		images = append(images, img)
	}
	sys.Register("multi", func(n *Node, _ []byte) {
		me := n.ID()
		n.ReadI64(base)
		n.Barrier()
		for _, s := range spans {
			if me == 0 {
				for w := s[0]; w < s[1]; w++ {
					n.WriteI64(base+Addr(8*w), val(w))
				}
			}
			n.Barrier()
		}
		if me != 1 {
			return
		}
		owed := owedNotices(n, pid)
		if len(owed) != 2 || owed[0].seq+1 != owed[1].seq {
			t.Errorf("node 1 owes %d notices, want the creator's two consecutive ones", len(owed))
			return
		}
		got := rawDiffReply(n, 0, pid, owed[1].seq, owed[0].seq)
		var want wbuf
		want.u32(uint32(pid))
		want.u32(2)
		for i, ivl := range owed {
			want.u32(uint32(ivl.seq))
			want.bytes(makeDiff(nil, images[i+1], images[i]))
		}
		if !bytes.Equal(got, want.b) {
			t.Errorf("two-interval reply:\n got %x\nwant %x", got, want.b)
		}
		for w := 0; w < PageSize/8; w++ {
			if v := n.ReadI64(base + Addr(8*w)); v != int64(binary.LittleEndian.Uint64(images[2][8*w:])) {
				t.Errorf("word %d = %#x after applying both diffs", w, v)
				break
			}
		}
	})
	if err := sys.Run(func(n *Node) { n.RunParallel("multi", nil) }); err != nil {
		t.Fatal(err)
	}
}
