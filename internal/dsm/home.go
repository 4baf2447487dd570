package dsm

import "fmt"

// Page homes: sharded initial ownership of the shared address space.
//
// Early revisions made node 0 the allocator, the sole first-copy page
// server, and the always-validate node of every GC purge — faithful to
// the paper's ≤8-processor runs, but a structural hotspot past them:
// every cold fault in the system serialized through one server, and
// every flush decision hinged on one node's purge progress. Ownership is
// now sharded by a static HomePolicy: each page has a HOME node that
// materializes its zero-filled initial copy on demand, serves first
// copies, always validates (never flushes) its own pages at collection
// epochs, and is the node every post-flush refetch rebuilds from.
//
// The GC flush-safety invariant generalizes from "node 0 purges first"
// to a per-page rule: a node may FLUSH a stale copy (dropping its
// covered write notices) only when the page's home has already purged
// the epoch floor — the home's copy then reflects every write under it,
// so a later whole-page refetch cannot lose the dropped notices. Nodes
// learn home purge progress from the per-node purge floors of the
// System's collector (gc.go; the simulation stand-in for an
// acknowledgment bit on the consensus messages that already flow); when
// the home lags, the purge VALIDATES instead, which is always sound —
// covered diffs stay fetchable until the one-epoch-delayed free — and a
// copy that was never materialized validates from zeros (zeros plus
// every covered diff applied in causal order IS the floor contents:
// allocation zero-fills, and every write since lives in some interval's
// diff). The rule holds for any static layout, node-0 homes included.

// HomePolicy selects how initial page ownership is distributed across
// nodes (Config.HomePolicy).
type HomePolicy int

const (
	// HomePolicyBlockCyclic, the zero value, assigns homes in blocks of
	// HomeBlockPages pages, round-robin across nodes — contiguous arrays
	// shard evenly and neighbouring pages keep one server.
	HomePolicyBlockCyclic HomePolicy = iota
	// HomePolicyNode0 is the degenerate pre-sharding layout: node 0 homes
	// every page. Kept as the paper-faithful ≤8-processor configuration;
	// it reproduces the old protocol byte for byte.
	HomePolicyNode0
)

// HomeBlockPages is the block size of HomePolicyBlockCyclic, in pages.
const HomeBlockPages = 8

// String returns the policy name.
func (p HomePolicy) String() string {
	switch p {
	case HomePolicyBlockCyclic:
		return "block-cyclic"
	case HomePolicyNode0:
		return "node0"
	}
	return fmt.Sprintf("HomePolicy(%d)", int(p))
}

// homeTable resolves page → home for one system.
type homeTable struct {
	policy HomePolicy
	procs  int
}

// homeOf returns the page's home node.
func (h homeTable) homeOf(pid PageID) int {
	if h.policy == HomePolicyNode0 {
		return 0
	}
	return (int(pid) / HomeBlockPages) % h.procs
}

// homeOf is the node-side resolver.
func (n *Node) homeOf(pid PageID) int { return n.sys.homes.homeOf(pid) }

// isHome reports whether this node homes the page.
func (n *Node) isHome(pid PageID) bool { return n.homeOf(pid) == n.id }
