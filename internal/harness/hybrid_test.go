package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dsm"
)

// TestHybridRaceSmoke is the application half of `make hybrid-race`: one
// real workload (Water: parallel do + region + barriers) through the
// hybrid backend at a genuine two-island split, verified against the
// sequential oracle. The core half of the target runs the conformance
// scenarios; together they put every primitive family under the race
// detector on real goroutines.
func TestHybridRaceSmoke(t *testing.T) {
	a, ok := FindApp("Water")
	if !ok {
		t.Fatal("Water not registered")
	}
	if _, err := Verified(a, Test, HybridImpl(2), 4, dsm.Config{}); err != nil {
		t.Error(err)
	}
}

// TestHybridImplParsing pins the omp-hybrid Impl forms: the bare name
// uses the package default island count, the @k suffix pins one, and
// anything else is not a hybrid impl.
func TestHybridImplParsing(t *testing.T) {
	if bk, ok := hybridBackendKind(OMPHybrid); !ok || string(bk) != "hybrid:2" {
		t.Errorf("OMPHybrid parsed to (%q, %v), want (hybrid:2, true)", bk, ok)
	}
	if bk, ok := hybridBackendKind(HybridImpl(4)); !ok || string(bk) != "hybrid:4" {
		t.Errorf("HybridImpl(4) parsed to (%q, %v), want (hybrid:4, true)", bk, ok)
	}
	for _, impl := range []Impl{OMP, OMPSMP, Tmk, MPI, Seq, "omp-hybrid@", "omp-hybrid@x", "omp-hybrid@0"} {
		if _, ok := hybridBackendKind(impl); ok {
			t.Errorf("%q parsed as a hybrid impl", impl)
		}
	}
}

// TestTablesIncludeHybridColumn pins the artifact wiring: Figure 6 and
// Table 2 print the OMP/Hyb column (on deterministic fake cells, so the
// test stays fast and schedule-independent).
func TestTablesIncludeHybridColumn(t *testing.T) {
	restore := swapRunCell(fakeCell)
	defer restore()

	var buf bytes.Buffer
	if err := Figure6(&buf, Test, 8); err != nil {
		t.Fatal(err)
	}
	if err := Table2(&buf, Test, 8); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "OMP/Hyb") {
		t.Error("artifacts missing the OMP/Hyb column heading")
	}
	if !strings.Contains(out, "islands in the hybrid") {
		t.Error("artifacts missing the hybrid island-count caption")
	}
}
