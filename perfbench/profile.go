package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"path"
	"strings"
)

// A CPU profile is decoded here with a minimal reader of the pprof
// protobuf format (profile.proto): only samples, locations, functions,
// and the string table are read.

// frame is one stack frame: a function and the file that defines it.
type frame struct {
	fn, file string
}

// sample is one profile sample: its stack, leaf first, and the CPU
// nanoseconds it stands for.
type sample struct {
	stack []frame
	ns    int64
}

// protoField is one decoded protobuf field.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited bytes
}

var errProto = errors.New("malformed profile protobuf")

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

// fields decodes one protobuf message into its fields.
func fields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(b); err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			l, m, err := readVarint(b)
			if err != nil || uint64(len(b)-m) < l {
				return nil, errProto
			}
			f.b, n = b[m:m+int(l)], m+int(l)
		case 5:
			n = 4
		default:
			return nil, errProto
		}
		if n > len(b) {
			return nil, errProto
		}
		b = b[n:]
		out = append(out, f)
	}
	return out, nil
}

// ints returns a repeated integer field's values, packed or not.
func (f protoField) ints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile as written by runtime/pprof.
// Each sample's CPU time is its last value (cpu nanoseconds).
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	type fnRec struct{ name, file uint64 }
	var strs []string
	fns := map[uint64]fnRec{}
	locs := map[uint64][]uint64{} // location id → function ids, innermost first
	type rawSample struct {
		locs []uint64
		ns   int64
	}
	var raws []rawSample
	for _, f := range top {
		switch f.num {
		case 2: // sample
			sf, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range sf {
				vs, err := g.ints()
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					if len(vs) > 0 {
						s.ns = int64(vs[len(vs)-1])
					}
				}
			}
			raws = append(raws, s)
		case 4: // location
			lf, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var ids []uint64
			for _, g := range lf {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					lnf, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lnf {
						if h.num == 1 {
							ids = append(ids, h.v)
						}
					}
				}
			}
			locs[id] = ids
		case 5: // function
			ff, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var r fnRec
			for _, g := range ff {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					r.name = g.v
				case 4:
					r.file = g.v
				}
			}
			fns[id] = r
		case 6: // string table
			strs = append(strs, string(f.b))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		s := sample{ns: r.ns}
		for _, l := range r.locs {
			for _, fid := range locs[l] {
				fr := fns[fid]
				s.stack = append(s.stack, frame{fn: str(fr.name), file: str(fr.file)})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layers lists the host.* buckets of the attribution, in report order.
var layers = []string{
	"apps", "core", "dsm.client", "dsm.server", "dsm.gc", "dsm.wire",
	"network", "mpi", "sim", "runtime.gc", "runtime.sched", "other",
}

// dsmFiles splits the dsm package by file into the protocol's layers.
// A dsm file not listed here counts as dsm.server, the protocol core.
var dsmFiles = map[string]string{
	"client.go": "dsm.client", "page.go": "dsm.client", "node.go": "dsm.client", "debug.go": "dsm.client",
	"gc.go": "dsm.gc", "acqgc.go": "dsm.gc",
	"wire.go": "dsm.wire", "codec.go": "dsm.wire", "vc.go": "dsm.wire",
}

// reproLayers maps the program's packages to layers.
var reproLayers = map[string]string{
	"repro/internal/core":    "core",
	"repro/internal/network": "network",
	"repro/internal/mpi":     "mpi",
	"repro/internal/sim":     "sim",
}

// runtimeGC and runtimeSched name the runtime functions that make a
// sample count as allocation/collection or as scheduling/channel work.
// A name is matched against the function's first component after
// "runtime." ("(*mheap)" for "runtime.(*mheap).alloc", "gcBgMarkWorker"
// for "runtime.gcBgMarkWorker.func2"); a trailing * matches a prefix.
var (
	runtimeGC = []string{
		"mallocgc*", "newobject", "newarray", "makeslice*", "growslice", "makemap*",
		"rawstring", "rawbyteslice", "rawruneslice", "gcBgMarkWorker", "gcDrain*",
		"gcAssistAlloc*", "gcMarkDone", "gcMarkTermination", "gcStart", "gcWriteBarrier*",
		"wbBufFlush*", "bulkBarrierPreWrite*", "scanobject", "scanblock", "scanstack",
		"scanframeworker", "markroot*", "greyobject", "sweepone", "bgsweep", "bgscavenge",
		"(*gcWork)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*sweepLocked)",
		"(*pageAlloc)", "(*scavengerState)", "(*gcControllerState)", "_GC",
	}
	runtimeSched = []string{
		"selectgo", "selectnbsend", "selectnbrecv", "block", "chansend*", "chanrecv*",
		"closechan", "send", "recv", "gopark", "goparkunlock", "park_m", "schedule",
		"findRunnable", "mcall", "goready", "ready", "runq*", "stealWork", "futex*",
		"note*", "semasleep", "semawakeup", "semacquire*", "semrelease*", "sync_runtime_Sem*",
		"lock", "lock2", "unlock", "unlock2", "lockWithRank", "unlockWithRank", "sysmon",
		"usleep", "osyield", "netpoll*", "wakep", "startm", "stopm", "mPark", "gosched_m",
		"goschedImpl", "Gosched", "newproc", "newproc1", "goexit0", "gfget", "gfput",
		"casgstatus", "execute", "checkTimers", "resetspinning", "handoffp", "entersyscall*",
		"exitsyscall*", "reentersyscall", "retake", "preemptone", "injectglist", "acquirep",
		"releasep",
	}
)

// pkgOf returns the import path of a profile function name such as
// "repro/internal/dsm.(*Client).ReadF64s".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// runtimeClass classifies one runtime function: "runtime.gc",
// "runtime.sched", or "" for any other runtime work (memmove, memclr,
// map access…), which belongs to its caller's layer.
func runtimeClass(fn string) string {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return ""
	}
	if i := strings.Index(name, ")."); i >= 0 {
		name = name[:i+1]
	} else if i := strings.Index(name, "."); i >= 0 {
		name = name[:i]
	}
	for _, set := range []struct {
		class string
		names []string
	}{{"runtime.gc", runtimeGC}, {"runtime.sched", runtimeSched}} {
		for _, p := range set.names {
			if prefix, ok := strings.CutSuffix(p, "*"); ok && strings.HasPrefix(name, prefix) || name == p {
				return set.class
			}
		}
	}
	return ""
}

// attribute returns the layer one sample's CPU time goes to. The stack's
// innermost run of runtime frames decides first: if its outermost
// classified frame is allocation/GC or scheduling/channel work, the
// sample goes there. Otherwise the sample goes to the layer of its
// innermost repro/... frame, with the dsm package split by file, and to
// "other" when the stack holds no program frame.
func attribute(stack []frame) string {
	class := ""
	for _, fr := range stack {
		if !isRuntime(pkgOf(fr.fn)) {
			break
		}
		if c := runtimeClass(fr.fn); c != "" {
			class = c
		}
	}
	if class != "" {
		return class
	}
	for _, fr := range stack {
		pkg := pkgOf(fr.fn)
		switch {
		case pkg == "repro/internal/dsm":
			if l, ok := dsmFiles[path.Base(fr.file)]; ok {
				return l
			}
			return "dsm.server"
		case strings.HasPrefix(pkg, "repro/internal/apps"):
			return "apps"
		case reproLayers[pkg] != "":
			return reproLayers[pkg]
		case strings.HasPrefix(pkg, "repro/"):
			return "other"
		}
	}
	return "other"
}

// attributeAll sums the samples' CPU seconds per layer; every layer is
// present, so the values sum to the profiled CPU time.
func attributeAll(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[attribute(s.stack)] += float64(s.ns) / 1e9
	}
	return out
}
