package dsm

import "testing"

// homePinWorkload is a fully deterministic barrier/fault kernel used to
// pin wire traffic byte-for-byte: every node writes its own pages each
// round and reads every peer's page after the barrier, so each round
// produces a fixed set of page fetches, diff fetches, and barrier
// messages, and the barrier/fork collector purges on every episode. The
// acquire source stays off (its push rounds depend on goroutine timing);
// everything that remains is program-ordered and timing-independent.
func homePinWorkload(t *testing.T, cfg Config) (msgs, bytes int64) {
	t.Helper()
	procs := cfg.Procs
	const rounds = 6
	sys := New(cfg)
	arr := sys.MallocPage(procs * PageSize)
	if err := sys.Run(func(n *Node) {
		sys.Register("pin", func(n *Node, _ []byte) {
			me := n.ID()
			for r := 0; r < rounds; r++ {
				n.WriteI64(arr+Addr(me*PageSize+8*(r%8)), int64(r*100+me))
				n.Barrier()
				for j := 0; j < procs; j++ {
					if got := n.ReadI64(arr + Addr(j*PageSize+8*(r%8))); got != int64(r*100+j) {
						t.Errorf("node %d round %d slot %d = %d", me, r, j, got)
					}
				}
				n.Barrier()
			}
		})
		n.RunParallel("pin", nil)
	}); err != nil {
		t.Fatal(err)
	}
	return sys.Switch().Stats().Snapshot()
}

// TestHomeNode0WireV2Pin pins the degenerate node-0-homes workload under
// the delta-compressed wire format. The logical message counts are those
// of the pre-batching, pre-sharding protocol (875 for both policies) —
// compression changes bytes, never protocol behaviour — and the byte
// counts are the wire-format goldens.
func TestHomeNode0WireV2Pin(t *testing.T) {
	for _, tt := range []struct {
		policy GCPolicy
		msgs   int64
		bytes  int64
	}{
		{GCPolicyFlush, 875, 1274609},
		{GCPolicyValidateHot, 875, 676613},
	} {
		msgs, bytes := homePinWorkload(t, Config{
			Procs:      8,
			GCPressure: -1,
			GCPolicy:   tt.policy,
			HomePolicy: HomePolicyNode0,
		})
		if msgs != tt.msgs || bytes != tt.bytes {
			t.Errorf("policy %v: msgs=%d bytes=%d, want msgs=%d bytes=%d (v2 wire format drifted)",
				tt.policy, msgs, bytes, tt.msgs, tt.bytes)
		}
	}
}

// TestHomePoliciesAgree runs the pin workload under every home policy and
// checks the program-visible outcome is identical (the workload asserts
// every read internally); traffic may differ — sharded homes move first
// copies and refetch bases — but correctness may not.
func TestHomePoliciesAgree(t *testing.T) {
	for _, hp := range []HomePolicy{HomePolicyBlockCyclic, HomePolicyNode0} {
		for _, pol := range []GCPolicy{GCPolicyFlush, GCPolicyValidateHot} {
			homePinWorkload(t, Config{Procs: 8, GCPressure: -1, GCPolicy: pol, HomePolicy: hp})
		}
	}
}

// TestHomeOfPolicies pins the home-assignment arithmetic.
func TestHomeOfPolicies(t *testing.T) {
	bc := homeTable{policy: HomePolicyBlockCyclic, procs: 4}
	for pid := 0; pid < 64; pid++ {
		want := (pid / HomeBlockPages) % 4
		if got := bc.homeOf(PageID(pid)); got != want {
			t.Fatalf("block-cyclic home of page %d = %d, want %d", pid, got, want)
		}
	}
	n0 := homeTable{policy: HomePolicyNode0, procs: 4}
	for pid := 0; pid < 64; pid += 7 {
		if got := n0.homeOf(PageID(pid)); got != 0 {
			t.Fatalf("node0 home of page %d = %d", pid, got)
		}
	}
}
