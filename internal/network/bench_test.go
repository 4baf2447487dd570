package network

import (
	"testing"

	"repro/internal/sim"
)

// Per-layer benchmarks of the simulated switch: one goroutine plays both
// endpoints of a 2-node switch, so each operation is a send and the
// receive that drains it, with no scheduling between them. Run with
// -benchmem (or read the ReportAllocs columns) for the host allocation
// each costs.

// benchPair returns the two endpoints of a fresh 2-node switch.
func benchPair(b *testing.B) (e0, e1 *Endpoint) {
	sw := NewSwitch(2, sim.DefaultPlatform().UDP)
	b.Cleanup(sw.Shutdown)
	var c0, c1 sim.Clock
	return sw.Endpoint(0, &c0), sw.Endpoint(1, &c1)
}

// BenchmarkSendAtRecv is one 64-byte request and its reply: SendAt and
// Recv in each direction.
func BenchmarkSendAtRecv(b *testing.B) {
	e0, e1 := benchPair(b)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e0.SendAt(1, 1, ClassRequest, payload, e0.Clock().Now())
		m := e1.Recv(ClassRequest)
		e1.SendAt(0, 2, ClassReply, payload, m.Arrive)
		e0.Recv(ClassReply)
	}
}

// BenchmarkSendFrameAt is one coalesced 64-byte frame of four parts sent
// with SendFrameAt and drained with RecvRaw.
func BenchmarkSendFrameAt(b *testing.B) {
	e0, e1 := benchPair(b)
	payload := make([]byte, 64)
	parts := []FramePart{{Type: 1, Bytes: 16}, {Type: 2, Bytes: 16}, {Type: 3, Bytes: 16}, {Type: 4, Bytes: 16}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e0.SendFrameAt(1, 1, ClassRequest, payload, parts, 0)
		e1.RecvRaw(ClassRequest)
	}
}
