package harness

// The cross-implementation equivalence contract: every implementation of
// every registered application must reproduce the sequential checksum at
// every processor count (checked by Verified). The suite in
// equivalence_test.go iterates Apps × Impls × EquivalenceProcs, so an
// application is covered the moment it is added to Apps — no per-app
// test wiring required.

// EquivalenceProcs is the processor grid of the equivalence suite: the
// paper's full machine (8 workstations) and the powers of two below it.
var EquivalenceProcs = []int{1, 2, 4, 8}

// EquivalenceSmokeProcs extends the grid past the paper's machine for
// the smoke rows of the scaling work: with homes sharded across nodes
// and the barrier a combining tree, the core implementations must still
// reproduce the sequential checksum at 16 and 32 workstations (at
// reduced app scale — the full grid at these sizes would dominate the
// suite's runtime).
var EquivalenceSmokeProcs = []int{16, 32}
