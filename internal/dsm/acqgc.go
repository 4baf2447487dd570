package dsm

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/network"
)

// Acquire-epoch garbage collection for lock/semaphore/condvar programs.
//
// The barrier-epoch collector (gc.go) keys on barriers and forks, so
// applications that synchronize exclusively through locks, semaphores, and
// condition variables — TSP's critical sections, QSORT's task-queue
// condvars, Sweep3D's semaphore pipelines — accumulate interval chains for
// the whole region between forks. Real TreadMarks solves this with a
// consensus garbage collection triggered on memory pressure (Amza et al.,
// IEEE Computer '96); this file is the simulation's analogue, led by the
// synchronization managers.
//
// Every lock acquire, semaphore wait/signal, and condition-variable wait
// already carries the requesting thread's vector clock on the wire, so the
// managers collectively observe, over time, a lower bound of every node's
// clock. The componentwise minimum of those observations is a floor F with
// the property that EVERY node has incorporated every interval under F —
// exactly the global agreement Keleher's LRC garbage collection requires.
// When the retirable-interval pressure (the floor's component sum beyond
// the last issued floor) crosses Config.GCPressure, the managers announce
// an acquire epoch with floor F, piggybacked on the grant messages of
// whatever synchronization the nodes perform next; each node, on its next
// sync operation, purges its page copies up to F (per the validate-vs-
// flush policy, Config.GCPolicy), truncates per-creator interval lists
// behind ivlBase, and releases the diffs and twins of intervals retired by
// the PREVIOUS acquire epoch.
//
// Soundness is the same one-epoch-delayed free as the barrier collector,
// with an acknowledgment gate standing in for barrier quiescence:
//
//   - An announced floor F is ≤ every node's true clock at announcement
//     time (it is a min over clocks genuinely carried in sync requests),
//     so every node has stored every interval under F, and all future
//     intervals have sequence numbers above F.
//   - The collector announces epoch k+1 only after every node has
//     recorded a purge covering EVERY floor issued so far — acquire floors
//     and collected barrier/fork-episode floors alike (gcEpochLocked feeds
//     both into the collector). Once every node has purged ⊇ F, no node
//     holds an unfetched write notice ≤ F, and none can ever reacquire
//     one, so the diffs of intervals under F are unreachable forever:
//     freeing them while processing epoch k+1 needs no further
//     coordination. Barrier-source frees stay safe for the symmetric
//     reason (every node purges the episode floor — which dominates every
//     previously announced acquire floor — before resuming application
//     code, and a node parked in the episode cannot fetch).
//
// Nodes purge an announced floor in any order. A foreign copy flushes
// only once its page's home has purged the floor (the per-page flush
// gate, see home.go), so every refetch rebuilds from a home copy that
// already reflects the dropped notices, whatever the home layout.
//
// In the simulation the acquire source's bookkeeping lives in the
// System's collector (gc.go): the clocks it aggregates are the ones
// genuinely present in the request wire format, and the epoch
// announcements and purge acknowledgments ride messages that already flow
// (grants, acks, departures) — a few extra bytes the simulation does not
// charge separately.

// DefaultGCPressure is the acquire-epoch trigger used when Config.GCPressure
// is zero: an epoch is announced when the consensus floor would newly retire
// at least this many interval records. It is set comfortably above the
// per-episode retirement of barrier-dense applications, so programs whose
// barriers and forks already collect promptly never pay for an extra
// acquire round.
const DefaultGCPressure = 256

// GCPolicy selects how a node purges page copies that owe retired diffs at
// a collection epoch (barrier, fork, or acquire source alike). A page's
// home always validates it: the home is the page's first-copy server, and
// its copy is the base every first fetch builds on (see home.go).
type GCPolicy int

const (
	// GCPolicyFlush, the zero value, discards every stale copy outright;
	// the next access refetches the whole page from its home's validated
	// copy. This is the classic TreadMarks invalidate choice.
	GCPolicyFlush GCPolicy = iota
	// GCPolicyValidateHot fetches and applies the retired diffs of pages
	// faulted since the last collection (hot pages — the ones the node
	// will touch again), keeping their copies; cold pages are flushed.
	GCPolicyValidateHot
)

// String returns the knob spelling accepted by ParseGCPolicy.
func (p GCPolicy) String() string {
	switch p {
	case GCPolicyFlush:
		return "flush"
	case GCPolicyValidateHot:
		return "validate-hot"
	}
	return fmt.Sprintf("GCPolicy(%d)", int(p))
}

// ParseGCPolicy parses a policy knob ("flush", "validate-hot"; "" and
// "default" mean flush).
func ParseGCPolicy(s string) (GCPolicy, error) {
	switch s {
	case "", "default", "flush":
		return GCPolicyFlush, nil
	case "validate-hot":
		return GCPolicyValidateHot, nil
	}
	return GCPolicyFlush, fmt.Errorf("dsm: unknown GC policy %q", s)
}

// progressLocked is a monotone scalar that advances whenever any node
// purges or an epoch is announced — what the push backoff watches to
// distinguish "consensus under way" from "consensus stuck on a thread
// only the application can unblock".
func (co *collector) progressLocked() int64 {
	p := co.announced
	for _, v := range co.purged {
		p += v.sum()
	}
	return p
}

// report records node id's clock as carried on a sync request and runs
// the announcement check. It returns the floor of an issued epoch id has
// not yet purged (if any), plus the set of quiet peers id should push a
// consensus-sync delta to (nil outside a push round): nodes whose stale
// clocks hold the consensus floor back, or whose missing purge
// acknowledgment gates the next announcement, while retirable pressure
// has built past the threshold. The push — TreadMarks' "interrupt every
// process for the consensus" — is what lets programs whose other threads
// sit parked on a condition variable or semaphore still retire the busy
// thread's interval chains.
// wantPush must be FALSE for callers that will not actually send the
// returned deltas (the server-side handler): a push round's pacing state
// (pushStamp, pushGap backoff) is consumed when the round is issued, and
// consuming it without sending would silently swallow the round.
// Requires the acquire source to be on.
func (co *collector) report(id int, vc VectorClock, wantPush bool) (floor VectorClock, pending bool, push []int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.reports++
	co.reported[id].merge(vc)
	co.maybeAnnounceLocked()
	floor, pending = co.pendingFloorLocked(id)
	// Push-round check: raw pressure counts every interval any node has
	// reported beyond the issued baseline — the metadata actually
	// accumulating somewhere — while the announcement path is blocked
	// (floor held back by stale clocks, or by missing purges).
	if !wantPush || co.reports-co.pushStamp < co.pushGap {
		return floor, pending, nil
	}
	union := co.reported[0].clone()
	for _, r := range co.reported[1:] {
		union.merge(r)
	}
	if union.sum()-co.baseSum < co.pressure {
		return floor, pending, nil
	}
	for i := range co.reported {
		if i == id {
			continue
		}
		if !union.dominatedBy(co.reported[i]) || !co.baseline.dominatedBy(co.purged[i]) {
			push = append(push, i)
		}
	}
	if push != nil {
		co.pushStamp = co.reports
		co.pushes++
		if prog := co.progressLocked(); prog == co.pushProg {
			if co.pushGap < 1024*int64(len(co.reported)) {
				co.pushGap *= 2
			}
		} else {
			co.pushGap = int64(len(co.reported))
			co.pushProg = prog
		}
	}
	return floor, pending, push
}

// pendingFloorLocked returns the issued baseline when node id has not yet
// purged it. Requires co.mu.
func (co *collector) pendingFloorLocked(id int) (VectorClock, bool) {
	if co.baseline.dominatedBy(co.purged[id]) {
		return nil, false
	}
	return co.baseline.clone(), true
}

// pendingFloorFor is report()'s pending condition without registering a
// report or consuming push pacing. Frame senders use it to piggyback a
// msgGCFloor announcement onto a frame already bound for the peer, so a
// quiet node learns of the epoch one datagram earlier than its own next
// sync operation would.
func (co *collector) pendingFloorFor(id int) (VectorClock, bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.pendingFloorLocked(id)
}

// maybeAnnounceLocked issues a new acquire epoch when (a) every node has
// purged everything issued so far — the acknowledgment gate that makes the
// one-epoch-delayed free sound, and blocks announcements while a barrier
// episode's purges are still in flight — and (b) the consensus floor would
// newly retire at least the pressure threshold.
func (co *collector) maybeAnnounceLocked() {
	for _, p := range co.purged {
		if !co.baseline.dominatedBy(p) {
			return
		}
	}
	cand := co.reported[0].clone()
	for _, r := range co.reported[1:] {
		for i, v := range r {
			if v < cand[i] {
				cand[i] = v
			}
		}
	}
	// Monotone: every floor already issued is ≤ every node's true clock,
	// so merging keeps cand a sound global floor.
	cand.merge(co.baseline)
	if cand.sum()-co.baseSum < co.pressure {
		return
	}
	co.baseline = cand
	co.baseSum = cand.sum()
	co.announced++
}

// noteIssued folds a collected barrier/fork-episode floor into the
// baseline (called by node 0 when it decides an episode collects, BEFORE
// any departure or fork goes out): announcements stay blocked until every
// node has processed the episode, and episode-driven retirement does not
// count toward acquire pressure.
func (co *collector) noteIssued(floor VectorClock) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.baseline.merge(floor)
	co.baseSum = co.baseline.sum()
}

// announcedCount returns the number of acquire epochs issued so far.
func (co *collector) announcedCount() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.announced
}

// gcTreeConsensus reports whether consensus pushes route through the
// combining tree instead of directly to every target: whenever there are
// more nodes than the flat barrier spans (procs > fanin+1). At or below
// that size the tree is flat — every node is at most one hop from the
// root — and direct sends already ARE the degenerate tree routing, so the
// paper-scale paths stay byte-identical.
func (n *Node) gcTreeConsensus() bool {
	return n.sys.cfg.Procs > n.sys.fanin+1
}

// routeTargetsLocked groups consensus destinations by their first
// combining-tree hop from this node, dropping the node itself. Hops come
// back sorted so send order is deterministic. byHop[h] lists the FINAL
// destinations to be relayed past h — h itself, always a recipient of
// the frame, is not in its own list.
func (n *Node) routeTargetsLocked(targets []int) (hops []int, byHop map[int][]int) {
	byHop = make(map[int][]int, len(targets))
	for _, t := range targets {
		if t == n.id {
			continue
		}
		h := routeHop(n.id, t, n.sys.fanin)
		if _, seen := byHop[h]; !seen {
			hops = append(hops, h)
			byHop[h] = nil
		}
		if t != h {
			byHop[h] = append(byHop[h], t)
		}
	}
	sort.Ints(hops)
	return hops, byHop
}

// consensusFrameLocked assembles one consensus frame bound for hop: a
// msgGCSync sub carrying the trailer delta against the hop's piggyback
// estimate plus the varint relay list of destinations past the hop
// (appended after the trailer; a flat push or reverse delta simply has no
// trailing bytes), and a msgGCFloor sub when the hop owes an issued
// epoch. The hop incorporates the delta and forwards each remaining
// destination one hop onward with a delta recomputed from its own merged
// clocks — the interior-node merging that caps any node's per-round
// consensus fan-out at its tree degree instead of the machine size.
// Requires n.mu.
func (n *Node) consensusFrameLocked(hop int, relay []int) *frameBuilder {
	var w wbuf
	putTrailer(&w, n.vc, n.deltaForLocked(n.knownVC[hop]))
	if len(relay) > 0 {
		w.uv(uint64(len(relay)))
		for _, t := range relay {
			w.uv(uint64(t))
		}
	}
	f := n.newFrame()
	f.add(msgGCSync, w.b)
	n.addPendingFloor(f, hop)
	return f
}

// addPendingFloor appends a msgGCFloor sub announcing the issued epoch
// floor peer has not purged yet, if any, and reports whether it did.
func (n *Node) addPendingFloor(f *frameBuilder, peer int) bool {
	floor, ok := n.sys.gc.pendingFloorFor(peer)
	if !ok {
		return false
	}
	var w wbuf
	putVC(&w, floor)
	f.add(msgGCFloor, w.b)
	return true
}

// gcSpinTries bounds the backpressure loop of gcSyncHook: a pressured
// node yields at most this many times waiting for the consensus to catch
// up, so a consensus stalled on a thread that only this node can unblock
// (e.g. a condvar waiter expecting our signal) can never livelock the
// application.
const gcSpinTries = 4096

// gcSyncHook runs after every application-side synchronization operation:
// it reports the calling thread's clock to the collector (the clock is
// genuinely on the wire in the operation's request), processes any
// announced epoch this node has not purged yet — the node's side of the
// epoch consensus, piggybacked on the operation's grant — and, when the
// collector asks for a push round, sends consensus-sync deltas to the
// quiet nodes holding the floor back. While this node's own retained
// chain sits far past the trigger, the hook additionally applies
// backpressure, yielding the processor so the peers' protocol servers can
// take their side of the consensus (real TreadMarks stalls the allocating
// process until the garbage-collection consensus completes); the chain
// peak therefore stays bounded by the trigger, not by how fast one
// thread can race ahead of the scheduler. Must be called WITHOUT n.mu
// held.
//
// spin must be FALSE at call sites where the application still holds a
// lock (the tail of Acquire and CondWait, condition notifies): stalling
// there stretches the critical section, piles island-mates onto the
// local handoff queue — whose priority over the global chain would then
// starve every other island's acquire, freezing the very consensus the
// backpressure is waiting for (a livelock the hybrid TSP surfaced).
// Release/semaphore/flush tails hold nothing and are where the
// backpressure lives.
func (c *Client) gcSyncHook(spin bool) {
	n := c.n
	co := n.sys.gc
	if !co.acquireOn() {
		return
	}
	c.gcSyncOnce()
	if !spin {
		return
	}
	limit := 4 * co.pressure
	if int64(c.retainedChain()) <= limit {
		return
	}
	// Backpressure: yield until the chain is back under the limit,
	// re-running a consensus step every few yields. The wait is bounded
	// only by gcSpinTries, not by how long the consensus shows no
	// progress: the peers' purges need their application threads, and
	// how many of this thread's yields that takes depends on how fast the
	// host runs this thread's own protocol work, so any shorter grace
	// lets the chain outrun the trigger on a fast host. A consensus stuck
	// on a thread only this one can unblock — a condvar waiter whose wake
	// depends on it — costs one full spin per release; push rounds inside
	// the loop stay paced by pushGap, so the wait never floods the wire.
	for try := 0; try < gcSpinTries; try++ {
		select {
		case <-n.sys.done:
			panic(abortError{cause: "switch shut down"})
		default:
		}
		runtime.Gosched()
		if try%8 != 7 {
			continue
		}
		c.gcSyncOnce()
		if int64(c.retainedChain()) <= limit {
			return
		}
	}
}

// retainedChain returns the node's longest retained per-creator interval
// list — what the backpressure loop bounds.
func (c *Client) retainedChain() int {
	n := c.n
	n.mu.Lock()
	defer n.mu.Unlock()
	chain := 0
	for _, have := range n.intervals {
		if len(have) > chain {
			chain = len(have)
		}
	}
	return chain
}

// gcSyncOnce is one consensus step: report, process a pending epoch, send
// any requested push deltas.
func (c *Client) gcSyncOnce() {
	n := c.n
	n.mu.Lock()
	vc := n.vc.clone()
	n.mu.Unlock()
	floor, pending, push := n.sys.gc.report(n.id, vc, true)
	n.mu.Lock()
	defer n.mu.Unlock()
	if pending {
		n.acqEpochLocked(c, floor)
	}
	if len(push) == 0 {
		return
	}
	// Flat tree: one frame straight to each quiet node, exactly like a
	// flush notice — their servers incorporate it in wire order, raising
	// their clocks past the pressured node's intervals so the consensus
	// floor can advance without waiting for their application threads.
	// Beyond it the push is hierarchical: instead of one datagram per
	// quiet node — O(P) from the pusher every round, O(P²) consensus
	// traffic as rounds scale with the node count — the round routes
	// through the combining tree. The pusher sends ONE frame per first hop
	// (children subtrees and the parent, at most fanin+1 of them); each
	// hop incorporates the delta and relays the destinations beyond it
	// with deltas recomputed from its own merged state, so every node's
	// per-round fan-out is bounded by its tree degree and round traffic
	// totals O(P) frames along tree edges.
	hops, byHop := push, map[int][]int(nil)
	if n.gcTreeConsensus() {
		hops, byHop = n.routeTargetsLocked(push)
	}
	for _, h := range hops {
		f := n.consensusFrameLocked(h, byHop[h])
		n.noteSentLocked(h)
		n.stats.GCSyncPushes++
		// Sent under mu: atomic with the estimate update.
		f.sendAt(h, c.clk.Now())
	}
}

// handleGCSync runs on a quiet node's protocol server: incorporate the
// pushed delta (raising this node's clock), report the new clock, and —
// if an issued epoch is pending here and no application fetch is in
// flight — run it flush-only right now, so a node parked on a condition
// variable or deep in a compute phase neither holds the consensus floor
// nor gates the next announcement. A node whose purge must validate
// (fetch diffs, which a server cannot block on) leaves the epoch to its
// application thread: gcCanFlushAllLocked refuses when the node homes a
// covered-owing page or holds one whose home has not purged the floor.
func (n *Node) handleGCSync(m *network.Message) {
	r := rbuf{b: m.Payload}
	senderVC, recs := getTrailer(&r)
	// Tree-routed pushes append the varint relay list after the trailer
	// (flat pushes and reverse deltas end with the trailer).
	var relay []int
	if !r.done() {
		cnt := r.needCount(r.uvi(), 1)
		relay = make([]int, cnt)
		for i := range relay {
			t := r.uvi()
			if t >= n.sys.cfg.Procs {
				panic(wireErrf("dsm: node %d: consensus relay target %d outside %d-node system",
					n.id, t, n.sys.cfg.Procs))
			}
			relay[i] = t
		}
	}
	at := m.Arrive + n.sys.plat.RequestService
	n.mu.Lock()
	n.chargeInterruptLocked()
	n.incorporateLocked(recs, senderVC)
	n.noteHeardLocked(m.From, senderVC)
	vc := n.vc.clone()
	// Reverse delta: a quiet node's own last intervals have never been
	// carried anywhere (deltas only travel on sends, and it is not
	// sending), so the consensus floor could never cover its writes. The
	// exchange makes the push a two-way clock-and-notice swap, exactly
	// TreadMarks' consensus round; it stops as soon as both sides are
	// current (an empty delta sends nothing).
	back := n.deltaForLocked(n.knownVC[m.From])
	// Frame the reverse delta with a pending-floor announcement for the
	// pusher, when it owes one. Non-blocking: a server must NEVER block on
	// a peer's bounded request queue (two servers mutually blocked sending
	// into each other's full inboxes would stall every grant in the
	// system). A dropped frame only delays the consensus floor — the next
	// push round retries. Delivery is all-or-nothing per envelope, and the
	// knownVC estimate advances ONLY when the frame that actually carries
	// the delta went out — a dropped frame must not leave the estimate
	// vouching for sub-messages no peer ever received (the gap-free delta
	// invariant).
	f := n.newFrame()
	if len(back) > 0 {
		var w wbuf
		putTrailer(&w, n.vc, back)
		f.add(msgGCSync, w.b)
	}
	n.addPendingFloor(f, m.From)
	if f.count() > 0 && f.trySendAt(m.From, at) && len(back) > 0 {
		n.noteSentLocked(m.From)
		n.stats.GCSyncPushes++
	}
	// Tree relay: the pusher handed this node the destinations whose
	// first hop is here; forward each remaining destination one hop
	// onward. The forwarded trailer is recomputed from OUR clocks — the
	// pushed records were incorporated above, so the relayed delta covers
	// everything the pusher wanted propagated (interior-node merging), and
	// it additionally closes any gap between this node and the next hop.
	// Non-blocking like the reverse delta: a dropped frame only delays the
	// floor, and the pusher's next paced round retries; the estimate
	// advances only on real sends.
	if len(relay) > 0 && n.gcTreeConsensus() {
		hops, byHop := n.routeTargetsLocked(relay)
		for _, h := range hops {
			rf := n.consensusFrameLocked(h, byHop[h])
			if rf.trySendAt(h, at) {
				n.noteSentLocked(h)
				n.stats.GCSyncRelays++
			}
		}
	}
	n.mu.Unlock()
	n.gcFloorAttemptServer(vc)
}

// handleGCFloor runs on a node's protocol server when a peer piggybacked
// a pending-floor announcement onto a consensus frame: attempt the
// server-side epoch right away instead of waiting for this node's next
// sync operation. The decoded floor keeps the announcement honest on the
// wire (its bytes are charged as GC-consensus traffic), but the
// collector remains authoritative for which floor this node
// actually owes — a stale frame can never start a purge the registry
// would not hand out itself.
func (n *Node) handleGCFloor(m *network.Message) {
	r := rbuf{b: m.Payload}
	_ = getVC(&r)
	n.mu.Lock()
	n.chargeInterruptLocked()
	vc := n.vc.clone()
	n.mu.Unlock()
	n.gcFloorAttemptServer(vc)
}

// gcFloorAttemptServer is the server-side epoch attempt shared by
// handleGCSync and handleGCFloor: report the node's clock, and if an
// issued epoch is pending here and no application fetch is in flight,
// run it flush-only right now.
func (n *Node) gcFloorAttemptServer(vc VectorClock) {
	co := n.sys.gc
	if !co.acquireOn() {
		return
	}
	floor, pending, _ := co.report(n.id, vc, false)
	if !pending {
		return
	}
	// The TryLock is load-bearing: if the application thread is mid-fetch
	// (it holds fetchMu), a server-side purge could discard notices whose
	// diffs that fetch is about to request, opening the free-after-fetch
	// race the fetch lock exists to prevent. When the node is busy we
	// simply skip — a busy node's own hook processes the epoch shortly.
	if !n.fetchMu.TryLock() {
		return
	}
	n.mu.Lock()
	n.acqEpochServerLocked(floor)
	n.mu.Unlock()
	n.fetchMu.Unlock()
}

// acqEpochLocked processes one announced acquire epoch on the
// application thread: free what the PREVIOUS acquire epoch retired, purge
// page copies up to the new floor per the policy, and advance the floor.
// It does nothing if the floor is already covered (an island-mate claimed
// the epoch, or a barrier episode superseded it). Requires n.mu; the
// purge may release and reacquire it around its diff-fetch wave.
func (n *Node) acqEpochLocked(c *Client, floor VectorClock) {
	if n.gcPurgeVC != nil && floor.dominatedBy(n.gcPurgeVC) {
		return
	}
	if !floor.dominatedBy(n.vc) {
		// Impossible on the application thread: the floor is a min over
		// reported clocks (ours included) merged with episode floors whose
		// episodes this thread has already processed.
		panic(fmt.Sprintf("dsm: node %d acquire-epoch floor %v above local clock %v", n.id, floor, n.vc))
	}
	n.gcCollectLocked(&n.gcAcqFreeVC, floor, func() { n.gcPurgePagesLocked(c, floor, floor, false) })
	n.stats.GCAcqEpochs++
}

// acqEpochServerLocked is the protocol-server epoch run by the consensus
// push (handleGCSync, handleGCFloor): the purge is flush-only and never
// releases n.mu — a server cannot block on network replies. A node
// reached by a push is quiet — parked on a condition variable or deep in
// a compute phase — so its covered copies are cold: the policy question
// answers itself, and flushing needs no network. The caller must hold
// BOTH n.mu and fetchMu.
func (n *Node) acqEpochServerLocked(floor VectorClock) {
	if n.gcPurgeVC != nil && floor.dominatedBy(n.gcPurgeVC) {
		return
	}
	if !n.gcCanFlushAllLocked(floor) {
		// Some covered-owing copy cannot be flushed — it holds own writes
		// above the floor, is homed here (homes must validate), or its
		// home has not purged the floor yet — and a validating purge
		// fetches diffs, which a server cannot block on. Leave the epoch
		// to the application thread.
		return
	}
	if !floor.dominatedBy(n.vc) {
		// A stale push raced a just-issued barrier/fork episode: node 0
		// folds the episode floor into the collector's baseline BEFORE
		// this node's departure/fork delta arrives, so a push processed in
		// that window hands us a floor covering intervals we have not
		// incorporated yet. The episode delivery itself will purge past
		// this floor moments later; skip.
		return
	}
	n.gcCollectLocked(&n.gcAcqFreeVC, floor, func() { n.gcFlushCoveredLocked(floor) })
	n.stats.GCAcqEpochs++
}
