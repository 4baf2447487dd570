package core

import "testing"

// BenchmarkForkJoinSMP is one empty parallel region of 8 threads on the
// shared-memory backend: the fork, the team's (empty) bodies and the join
// barrier, on real goroutines. Run with -benchmem (or read the
// ReportAllocs columns) for the host allocation a region boundary costs.
func BenchmarkForkJoinSMP(b *testing.B) {
	prog := NewProgram(Config{Threads: 8, Backend: BackendSMP})
	defer prog.Close()
	prog.RegisterRegion("empty", func(*TC) {})
	err := prog.Run(func(m *MC) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Parallel("empty", nil)
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}
