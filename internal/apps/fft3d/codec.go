package fft3d

import (
	"encoding/binary"
	"math"
)

// putC writes v at the front of b as its little-endian (re, im) float64
// pair: the MPI transposes pack complex values straight into the send
// bytes with it.
func putC(b []byte, v complex128) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(real(v)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
}

// getC reads the (re, im) pair putC writes.
func getC(b []byte) complex128 {
	return complex(math.Float64frombits(binary.LittleEndian.Uint64(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
}
