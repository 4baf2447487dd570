package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// debugOracle, when enabled, keeps an authoritative shadow copy of every
// written byte (valid only for data-race-free programs whose sync order
// matches real time, which holds for lock-ordered tests). Reads compare
// against it and report the first divergence.
var (
	debugOracleOn  bool
	oracleMu       sync.Mutex
	oracleMem      map[int][]byte // per system instance? single-run tests only
	oracleDiverges int
)

// OracleDiverges reports how many divergent reads the shadow-memory
// checker has seen since the last SetDebugOracle(true).
func OracleDiverges() int {
	oracleMu.Lock()
	defer oracleMu.Unlock()
	return oracleDiverges
}

// SetDebugOracle enables the shadow-memory checker (single-System tests).
func SetDebugOracle(on bool) {
	oracleMu.Lock()
	debugOracleOn = on
	oracleMem = map[int][]byte{}
	oracleDiverges = 0
	oracleMu.Unlock()
}

func oracleWrite(a Addr, src []byte) {
	if !debugOracleOn {
		return
	}
	oracleMu.Lock()
	for i, b := range src {
		off := int(a) + i
		pg := off / PageSize
		buf, ok := oracleMem[pg]
		if !ok {
			buf = make([]byte, PageSize)
			oracleMem[pg] = buf
		}
		buf[off%PageSize] = b
	}
	oracleMu.Unlock()
}

// oracleWriteWords mirrors oracleWrite for the typed bulk paths.
func oracleWriteWords[T int32 | float64](a Addr, src []T) {
	if !debugOracleOn {
		return
	}
	oracleWrite(a, wordBytes(src))
}

// oracleCheckWords mirrors oracleCheck for the typed bulk paths.
func oracleCheckWords[T int32 | float64](node int, a Addr, got []T) {
	if !debugOracleOn {
		return
	}
	oracleCheck(node, a, wordBytes(got))
}

// wordBytes encodes typed words the way shared memory stores them.
func wordBytes[T int32 | float64](v []T) []byte {
	var buf []byte
	for _, x := range v {
		switch x := any(x).(type) {
		case int32:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		case float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf
}

func oracleCheck(node int, a Addr, got []byte) {
	if !debugOracleOn {
		return
	}
	oracleMu.Lock()
	defer oracleMu.Unlock()
	for i := range got {
		off := int(a) + i
		pg := off / PageSize
		buf, ok := oracleMem[pg]
		if !ok {
			continue
		}
		if got[i] != buf[off%PageSize] {
			oracleDiverges++
			fmt.Printf("ORACLE-DIVERGE node=%d addr=%d page=%d off=%d got=%d want=%d\n",
				node, off, pg, off%PageSize, got[i], buf[off%PageSize])
			return
		}
	}
}
