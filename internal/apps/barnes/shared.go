package barnes

import (
	"slices"

	"repro/internal/core"
)

// Helpers shared by the OpenMP and TreadMarks versions: the octree
// travels through DSM memory as one flat float64 image (children and body
// indices are exact in float64 far beyond any tree size used here), and
// the body arrays are deliberately packed — block boundaries false-share
// pages, which is the sharing pattern this application exists to stress.

// cellF64s is the per-cell footprint of the tree image: 8 scalars, 8
// child refs, 1 body ref.
const cellF64s = 17

// maxCells bounds the shared tree buffer; a uniform distribution builds
// ~2n cells, so 8n leaves generous slack.
func maxCells(n int) int { return 8*n + 64 }

// treeBytes sizes the shared tree buffer (one leading count slot).
func treeBytes(n int) int { return 8 * (1 + maxCells(n)*cellF64s) }

// treeStage is one thread's staging for the tree transfer, kept across
// steps: the float64 image the tree travels as, and the Tree a read
// decodes it into. Both grow (slices.Grow) to the largest tree seen and
// are otherwise reused, so publishing or reading a tree allocates nothing
// in steady state. A tree returned by readTree or decodeTree is valid
// until the stage's next read or decode.
type treeStage struct {
	img  []float64
	tree Tree
}

// image returns the stage's image resized to hold nc cells.
func (s *treeStage) image(nc int) []float64 {
	size := 1 + nc*cellF64s
	s.img = slices.Grow(s.img[:0], size)[:size]
	return s.img
}

// encodeTree flattens a finalized tree into the stage's image.
func (s *treeStage) encodeTree(t *Tree) []float64 {
	out := s.image(len(t.Cells))
	out[0] = float64(len(t.Cells))
	for i := range t.Cells {
		c := &t.Cells[i]
		b := 1 + i*cellF64s
		out[b+0], out[b+1], out[b+2], out[b+3] = c.CX, c.CY, c.CZ, c.Half
		out[b+4], out[b+5], out[b+6], out[b+7] = c.Mass, c.MX, c.MY, c.MZ
		for o := 0; o < 8; o++ {
			out[b+8+o] = float64(c.Child[o])
		}
		out[b+16] = float64(c.Body)
	}
	return out
}

// decodeTree rebuilds the stage's tree from a float64 image. Every field
// of every cell is overwritten, so the reused cells need no clearing.
func (s *treeStage) decodeTree(img []float64) *Tree {
	nc := int(img[0])
	t := &s.tree
	t.Cells = slices.Grow(t.Cells[:0], nc)[:nc]
	t.Work = 0
	for i := 0; i < nc; i++ {
		c := &t.Cells[i]
		b := 1 + i*cellF64s
		c.CX, c.CY, c.CZ, c.Half = img[b+0], img[b+1], img[b+2], img[b+3]
		c.Mass, c.MX, c.MY, c.MZ = img[b+4], img[b+5], img[b+6], img[b+7]
		for o := 0; o < 8; o++ {
			c.Child[o] = int32(img[b+8+o])
		}
		c.Body = int32(img[b+16])
	}
	return t
}

// writeTree publishes a tree image into shared memory at base.
func (s *treeStage) writeTree(nd core.Worker, base core.Addr, t *Tree, n int) {
	if len(t.Cells) > maxCells(n) {
		panic("barnes: shared tree buffer overflow")
	}
	nd.WriteF64s(base, s.encodeTree(t))
}

// readTree loads the tree image published at base.
func (s *treeStage) readTree(nd core.Worker, base core.Addr) *Tree {
	img := s.image(int(nd.ReadF64(base)))
	nd.ReadF64s(base, img)
	return s.decodeTree(img)
}
