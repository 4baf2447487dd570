package harness

import (
	"fmt"
	"testing"

	"repro/internal/dsm"
)

// TestCrossImplementationEquivalence asserts that the OpenMP, TreadMarks,
// and MPI versions of EVERY registered application reproduce the
// sequential checksum at test scale for procs ∈ EquivalenceProcs. New
// applications are covered automatically on registration in Apps.
func TestCrossImplementationEquivalence(t *testing.T) {
	for _, a := range Apps {
		for _, impl := range Impls {
			for _, procs := range EquivalenceProcs {
				a, impl, procs := a, impl, procs
				name := fmt.Sprintf("%s/%s/p%d", a.Name, impl, procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if _, err := Verified(a, Test, impl, procs, dsm.Config{}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestEquivalenceBeyondPaperScale is the >8-node smoke of the
// equivalence suite: every application's core implementations (the
// OpenMP source on the NOW and SMP backends, and hand-coded TreadMarks)
// must reproduce the sequential checksum at 16 and 32 workstations.
// The three DSM-backed impls are the ones the sharded homes and tree
// barrier touch; MPI and the hybrid island sweep stay on the 8-proc grid.
func TestEquivalenceBeyondPaperScale(t *testing.T) {
	for _, a := range Apps {
		for _, impl := range []Impl{OMP, OMPSMP, Tmk} {
			for _, procs := range EquivalenceSmokeProcs {
				a, impl, procs := a, impl, procs
				name := fmt.Sprintf("%s/%s/p%d", a.Name, impl, procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if _, err := Verified(a, Test, impl, procs, dsm.Config{}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestHybridEquivalenceAcrossIslands extends the suite along the hybrid
// backend's island axis: every application must reproduce the sequential
// checksum at procs ∈ EquivalenceProcs for islands ∈ {1, 2} (the plain
// omp-hybrid rows of TestCrossImplementationEquivalence already cover the
// default island count; the pinned impls here exercise the degenerate
// all-local split and the two-island split at every processor count).
func TestHybridEquivalenceAcrossIslands(t *testing.T) {
	for _, a := range Apps {
		for _, islands := range []int{1, 2} {
			for _, procs := range EquivalenceProcs {
				a, islands, procs := a, islands, procs
				impl := HybridImpl(islands)
				name := fmt.Sprintf("%s/%s/p%d", a.Name, impl, procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					if _, err := Verified(a, Test, impl, procs, dsm.Config{}); err != nil {
						t.Error(err)
					}
				})
			}
		}
	}
}

// TestEquivalenceCoversAllApps guards the suite itself: if the app
// registry grows, the equivalence grid grows with it (7 apps after the
// LU/Barnes addition).
func TestEquivalenceCoversAllApps(t *testing.T) {
	if len(Apps) < 7 {
		t.Fatalf("only %d registered apps; LU/Barnes missing?", len(Apps))
	}
	for _, name := range []string{"Sweep3D", "3D-FFT", "Water", "TSP", "QSORT", "LU", "Barnes"} {
		if _, ok := FindApp(name); !ok {
			t.Errorf("app %q not registered", name)
		}
	}
}
