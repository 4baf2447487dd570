package fft3d

import (
	"math"
	"slices"

	"repro/internal/core"
)

// Helpers shared by the OpenMP and TreadMarks versions: complex grids
// live in shared memory as (re, im) float64 pairs, 16 bytes per point.
// Every helper takes a core.Worker, which both *dsm.Node (TreadMarks)
// and the OpenMP thread context's Worker() satisfy, so one set of layout
// routines serves every backend.

const cBytes = 16

// stage is one thread's staging for bulk transfers, kept across calls
// (and, in the OpenMP version, across regions): the float64 image a
// transfer moves through, the complex values a read decodes to, and the
// block or slab a pack or unpack assembles. Each grows (slices.Grow) to
// the largest transfer seen and is otherwise reused, so a transfer
// allocates nothing in steady state. A slice returned by readComplex is
// valid until the stage's next readComplex, one returned by block until
// its next block.
type stage struct {
	f64  []float64
	vals []complex128
	blk  []complex128
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// block returns the stage's assembly buffer resized to cnt values, every
// one of which the caller overwrites.
func (st *stage) block(cnt int) []complex128 {
	st.blk = resize(st.blk, cnt)
	return st.blk
}

// readComplex bulk-reads cnt complex values starting at a.
func (st *stage) readComplex(n core.Worker, a core.Addr, cnt int) []complex128 {
	st.f64 = resize(st.f64, 2*cnt)
	n.ReadF64s(a, st.f64)
	st.vals = resize(st.vals, cnt)
	for i := range st.vals {
		st.vals[i] = complex(st.f64[2*i], st.f64[2*i+1])
	}
	return st.vals
}

// writeComplex bulk-writes vals starting at a.
func (st *stage) writeComplex(n core.Worker, a core.Addr, vals []complex128) {
	st.f64 = resize(st.f64, 2*len(vals))
	for i, v := range vals {
		st.f64[2*i] = real(v)
		st.f64[2*i+1] = imag(v)
	}
	n.WriteF64s(a, st.f64)
}

// readC reads one complex value at linear element index idx of array a.
func readC(n core.Worker, a core.Addr, idx int) complex128 {
	return complex(n.ReadF64(a+core.Addr(cBytes*idx)), n.ReadF64(a+core.Addr(cBytes*idx+8)))
}

// writeC writes one complex value at linear element index idx of array a.
func writeC(n core.Worker, a core.Addr, idx int, v complex128) {
	n.WriteF64(a+core.Addr(cBytes*idx), real(v))
	n.WriteF64(a+core.Addr(cBytes*idx+8), imag(v))
}

// The global transpose on the DSM is blocked, as efficient page-based DSM
// FT codes were written: the source-slab owner packs, for every
// destination thread, a contiguous block of the elements that thread will
// need; after a barrier the destination reads whole blocks (bulk,
// page-friendly) and unpacks into its own slab. This moves each byte once
// instead of pulling every source page to every node.

// xferBlocks describes the shared staging buffer of a blocked transpose:
// P×P blocks, each page-aligned so that no two writers share a page.
type xferBlocks struct {
	base       core.Addr
	procs      int
	blockBytes int // rounded up to a page multiple
}

// blocksBytesNeeded returns the staging buffer size for P procs when each
// (src,dst) block holds at most maxElems complex values.
func blocksBytesNeeded(procs, maxElems int) int {
	bb := core.PageRound(cBytes * maxElems)
	return procs * procs * bb
}

func newXferBlocks(base core.Addr, procs, maxElems int) *xferBlocks {
	return &xferBlocks{base: base, procs: procs, blockBytes: core.PageRound(cBytes * maxElems)}
}

// addr returns the shared address of block (src → dst).
func (xb *xferBlocks) addr(src, dst int) core.Addr {
	return xb.base + core.Addr((src*xb.procs+dst)*xb.blockBytes)
}

// packForward packs this thread's z-slab of u for every destination:
// block(me→d) = u[z][y][x] for z in my slab, y over all, x in d's slab,
// in (z, y, x) order.
func (st *stage) packForward(node core.Worker, u core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int)) {
	zlo, zhi := slab(me)
	for d := 0; d < xb.procs; d++ {
		dlo, dhi := slab(d)
		vals := st.block((zhi - zlo) * n * (dhi - dlo))
		i := 0
		for z := zlo; z < zhi; z++ {
			for y := 0; y < n; y++ {
				i += copy(vals[i:], st.readComplex(node, u+core.Addr(cBytes*((z*n+y)*n+dlo)), dhi-dlo))
			}
		}
		st.writeComplex(node, xb.addr(me, d), vals)
	}
}

// unpackForward builds this thread's x-slab of w from the staged blocks:
// w[x][y][z] for x in my slab (assembled privately, written in one
// contiguous store — the slab is contiguous in w's [x][y][z] layout).
func (st *stage) unpackForward(node core.Worker, w core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int)) {
	xlo, xhi := slab(me)
	myX := xhi - xlo
	out := st.block(myX * n * n) // every element set: the sources tile z
	for s := 0; s < xb.procs; s++ {
		slo, shi := slab(s)
		vals := st.readComplex(node, xb.addr(s, me), (shi-slo)*n*myX)
		i := 0
		for z := slo; z < shi; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < myX; x++ {
					out[(x*n+y)*n+z] = vals[i]
					i++
				}
			}
		}
	}
	st.writeComplex(node, w+core.Addr(cBytes*xlo*n*n), out)
}

// packBackward packs this thread's x-slab of vw for every destination
// z-slab owner: block(me→d) = vw[x][y][z] for x in my slab, z in d's slab,
// in (x, y, z) order.
func (st *stage) packBackward(node core.Worker, vw core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int)) {
	xlo, xhi := slab(me)
	for d := 0; d < xb.procs; d++ {
		dlo, dhi := slab(d)
		vals := st.block((xhi - xlo) * n * (dhi - dlo))
		i := 0
		for x := xlo; x < xhi; x++ {
			for y := 0; y < n; y++ {
				i += copy(vals[i:], st.readComplex(node, vw+core.Addr(cBytes*((x*n+y)*n+dlo)), dhi-dlo))
			}
		}
		st.writeComplex(node, xb.addr(me, d), vals)
	}
}

// unpackBackward builds this thread's z-slab of u from the staged blocks:
// u[z][y][x] for z in my slab (assembled privately, stored contiguously).
func (st *stage) unpackBackward(node core.Worker, u core.Addr, xb *xferBlocks, me, n int, slab func(int) (int, int)) {
	zlo, zhi := slab(me)
	myZ := zhi - zlo
	out := st.block(myZ * n * n) // every element set: the sources tile x
	for s := 0; s < xb.procs; s++ {
		slo, shi := slab(s)
		vals := st.readComplex(node, xb.addr(s, me), (shi-slo)*n*myZ)
		i := 0
		for x := slo; x < shi; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < myZ; z++ {
					out[(z*n+y)*n+x] = vals[i]
					i++
				}
			}
		}
	}
	st.writeComplex(node, u+core.Addr(cBytes*zlo*n*n), out)
}

// checksumPartial sums the NAS sample points whose z index falls in
// [zlo, zhi), reading from the spatial array in DSM.
func checksumPartial(node core.Worker, v core.Addr, n, zlo, zhi int) (re, im float64) {
	var s complex128
	for j := 1; j <= checksumTerms; j++ {
		x, y, z := checksumIndices(j, n)
		if z < zlo || z >= zhi {
			continue
		}
		s += readC(node, v, (z*n+y)*n+x)
	}
	return real(s), imag(s)
}

// gridChecksum folds one iteration's complex sample sum into the running
// scalar checksum.
func gridChecksum(re, im float64) float64 { return math.Sqrt(re*re + im*im) }
