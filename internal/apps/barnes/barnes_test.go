package barnes

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/dsm"
)

func TestTreeConservesMass(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	var want float64
	for _, m := range mass {
		want += m
	}
	root := tr.Cells[0]
	if math.Abs(root.Mass-want) > 1e-12*float64(p.NBody) {
		t.Fatalf("root mass %v, want %v", root.Mass, want)
	}
}

func TestTreeHoldsEveryBodyOnce(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	seen := make(map[int32]int)
	for i := range tr.Cells {
		if b := tr.Cells[i].Body; b != nilRef {
			seen[b]++
		}
	}
	if len(seen) != p.NBody {
		t.Fatalf("%d distinct bodies in leaves, want %d", len(seen), p.NBody)
	}
	for b, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("body %d appears in %d leaves", b, cnt)
		}
	}
}

func TestTreeImageRoundTrips(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	tr := BuildTree(pos, mass, p.NBody)
	var enc, dec treeStage
	got := dec.decodeTree(enc.encodeTree(tr))
	if len(got.Cells) != len(tr.Cells) {
		t.Fatalf("%d cells after round trip, want %d", len(got.Cells), len(tr.Cells))
	}
	for i := range tr.Cells {
		if got.Cells[i] != tr.Cells[i] {
			t.Fatalf("cell %d changed in round trip: %+v vs %+v", i, got.Cells[i], tr.Cells[i])
		}
	}
}

// TestAccelApproximatesDirectSum compares the theta=0.6 traversal against
// the exact O(n²) softened sum: the opening criterion bounds the relative
// force error to a few percent.
func TestAccelApproximatesDirectSum(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	n := p.NBody
	tr := BuildTree(pos, mass, n)
	for _, i := range []int{0, 7, n / 2, n - 1} {
		ax, ay, az, _ := tr.Accel(pos, i, theta, eps)
		var ex, ey, ez float64
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := pos[3*j] - pos[3*i]
			dy := pos[3*j+1] - pos[3*i+1]
			dz := pos[3*j+2] - pos[3*i+2]
			r2 := dx*dx + dy*dy + dz*dz + eps*eps
			inv := 1 / (r2 * math.Sqrt(r2))
			ex += mass[j] * inv * dx
			ey += mass[j] * inv * dy
			ez += mass[j] * inv * dz
		}
		bh := math.Sqrt(ax*ax + ay*ay + az*az)
		exact := math.Sqrt(ex*ex + ey*ey + ez*ez)
		diff := math.Sqrt((ax-ex)*(ax-ex) + (ay-ey)*(ay-ey) + (az-ez)*(az-ez))
		if diff > 0.08*exact {
			t.Errorf("body %d: BH accel %v deviates %.1f%% from direct sum %v", i, bh, 100*diff/exact, exact)
		}
	}
}

// TestImplementationsMatchSequential cross-checks all three parallel
// versions against the sequential checksum at a small size (the full grid
// runs in the harness equivalence suite).
func TestImplementationsMatchSequential(t *testing.T) {
	p := Params{NBody: 48, Steps: 2, Seed: 5}
	want := RunSeq(p).Checksum
	for name, run := range map[string]func(Params, int) (apps.Result, error){
		"omp": RunOMP, "tmk": RunTmk, "mpi": RunMPI,
	} {
		for _, procs := range []int{1, 3, 4} {
			got, err := run(p, procs)
			if err != nil {
				t.Fatalf("%s/p%d: %v", name, procs, err)
			}
			if err := apps.CheckClose(name, got.Checksum, want, 1e-10); err != nil {
				t.Errorf("p%d: %v", procs, err)
			}
		}
	}
}

// TestTreeStageReusesBuffers reads a published tree twice through one
// stage, the second time a smaller one: the second read must decode
// correctly into the first read's image and cell arrays, not fresh ones.
func TestTreeStageReusesBuffers(t *testing.T) {
	p := Small()
	pos, _, mass := InitBodies(p)
	big := BuildTree(pos, mass, p.NBody)
	small := BuildTree(pos, mass, p.NBody/2)
	if len(small.Cells) >= len(big.Cells) {
		t.Fatalf("half the bodies built %d cells, the whole set %d", len(small.Cells), len(big.Cells))
	}
	sys := dsm.New(dsm.Config{Procs: 1})
	defer sys.Close()
	treeA := sys.MallocPage(treeBytes(p.NBody))
	err := sys.Run(func(nd *dsm.Node) {
		var pub, st treeStage
		pub.writeTree(nd, treeA, big, p.NBody)
		first := st.readTree(nd, treeA)
		img, cells := unsafe.SliceData(st.img), unsafe.SliceData(first.Cells)
		pub.writeTree(nd, treeA, small, p.NBody)
		second := st.readTree(nd, treeA)
		if unsafe.SliceData(st.img) != img || unsafe.SliceData(second.Cells) != cells {
			t.Error("second read of a smaller tree allocated a new image or cell array")
		}
		if !slices.Equal(second.Cells, small.Cells) {
			t.Error("second read decoded a different tree")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
