package dsm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Page homes: sharded initial ownership of the shared address space.
//
// Early revisions made node 0 the allocator, the sole first-copy page
// server, and the always-validate node of every GC purge — faithful to
// the paper's ≤8-processor runs, but a structural hotspot past them:
// every cold fault in the system serialized through one server, and
// every flush decision hinged on one node's purge progress. Ownership is
// now sharded by a HomePolicy: each page has a HOME node that
// materializes its zero-filled initial copy on demand, serves first
// copies, always validates (never flushes) its own pages at collection
// epochs, and is the node every post-flush refetch rebuilds from.
//
// The GC flush-safety invariant generalizes from "node 0 purges first"
// to a per-page rule: a node may FLUSH a stale copy (dropping its
// covered write notices) only when the page's home has already purged
// the epoch floor — the home's copy then reflects every write under it,
// so a later whole-page refetch cannot lose the dropped notices. Nodes
// learn home purge progress from the System-level homePurged registry
// (the simulation stand-in for an acknowledgment bit on the consensus
// messages that already flow); when the home lags, the purge VALIDATES
// instead, which is always sound — covered diffs stay fetchable until
// the one-epoch-delayed free — and a copy that was never materialized
// validates from zeros (zeros plus every covered diff applied in causal
// order IS the floor contents: allocation zero-fills, and every write
// since lives in some interval's diff).

// HomePolicy selects how initial page ownership is distributed across
// nodes (Config.HomePolicy).
type HomePolicy int

const (
	// HomePolicyDefault is the zero value; a System resolves it to
	// HomePolicyBlockCyclic.
	HomePolicyDefault HomePolicy = iota
	// HomePolicyBlockCyclic assigns homes in blocks of HomeBlockPages
	// pages, round-robin across nodes — contiguous arrays shard evenly
	// and neighbouring pages keep one server.
	HomePolicyBlockCyclic
	// HomePolicyNode0 is the degenerate pre-sharding layout: node 0 homes
	// every page. Kept as the paper-faithful ≤8-processor configuration;
	// it reproduces the old protocol byte for byte.
	HomePolicyNode0
	// HomePolicyFirstTouch assigns each page to the first node that
	// materializes it (fault or allocation touch), the classic NUMA
	// placement: pages land where they are first used.
	HomePolicyFirstTouch
)

// HomeBlockPages is the block size of HomePolicyBlockCyclic, in pages.
const HomeBlockPages = 8

// String returns the policy name.
func (p HomePolicy) String() string {
	switch p {
	case HomePolicyDefault:
		return "default"
	case HomePolicyBlockCyclic:
		return "block-cyclic"
	case HomePolicyNode0:
		return "node0"
	case HomePolicyFirstTouch:
		return "first-touch"
	}
	return fmt.Sprintf("HomePolicy(%d)", int(p))
}

// homeTable resolves page → home for one system.
type homeTable struct {
	policy HomePolicy
	procs  int
	// claims is the first-touch registry: claims[pid] is the home node id
	// + 1, or 0 while unclaimed. Only HomePolicyFirstTouch populates it.
	claims []atomic.Int32
}

func newHomeTable(policy HomePolicy, procs, npages int) *homeTable {
	h := &homeTable{policy: policy, procs: procs}
	if policy == HomePolicyFirstTouch {
		h.claims = make([]atomic.Int32, npages)
	}
	return h
}

// homeOf returns the page's home node, or -1 for a first-touch page no
// node has claimed yet (such a page has never been materialized anywhere,
// so it cannot owe write notices either).
func (h *homeTable) homeOf(pid PageID) int {
	switch h.policy {
	case HomePolicyNode0:
		return 0
	case HomePolicyFirstTouch:
		return int(h.claims[pid].Load()) - 1
	}
	return (int(pid) / HomeBlockPages) % h.procs
}

// claim makes id the page's home if no node beat it to the claim, and
// returns the winning home. Non-first-touch policies are static: the
// assigned home is returned unchanged.
func (h *homeTable) claim(pid PageID, id int) int {
	if h.policy != HomePolicyFirstTouch {
		return h.homeOf(pid)
	}
	if h.claims[pid].CompareAndSwap(0, int32(id)+1) {
		return id
	}
	return int(h.claims[pid].Load()) - 1
}

// homeOf is the node-side resolver (no claim).
func (n *Node) homeOf(pid PageID) int { return n.sys.homes.homeOf(pid) }

// isHome reports whether this node homes the page, claiming it under the
// first-touch policy: callers are exactly the points where the node is
// materializing the page (allocation touch or cold fault).
func (n *Node) isHome(pid PageID) bool { return n.sys.homes.claim(pid, n.id) == n.id }

// homePurged tracks, per node, the merged floor of every collection epoch
// the node has completed — the registry behind the per-page flush gate.
// Its mutex is a leaf (like the acquire coordinator's): it is taken with
// n.mu held, inside gcCollectLocked, and never takes any other lock.
type homePurged struct {
	mu     sync.Mutex
	floors []VectorClock
}

func newHomePurged(procs int) *homePurged {
	h := &homePurged{floors: make([]VectorClock, procs)}
	for i := range h.floors {
		h.floors[i] = newVC(procs)
	}
	return h
}

// note records that node id completed a purge to the given floor. Called
// inside gcCollectLocked immediately after the purge, so the registry
// never runs ahead of the node's actual page state.
func (h *homePurged) note(id int, floor VectorClock) {
	h.mu.Lock()
	h.floors[id].merge(floor)
	h.mu.Unlock()
}

// covers reports whether the home has completed a purge covering floor:
// its copies of its own pages then reflect every write under it (homes
// always validate their own pages), so peers may flush theirs.
func (h *homePurged) covers(home int, floor VectorClock) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return floor.dominatedBy(h.floors[home])
}
