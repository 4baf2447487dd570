// Package repro's root benchmarks regenerate every table and figure of
// the paper through the testing.B interface, one benchmark family per
// artifact (DESIGN.md §3):
//
//	BenchmarkTable1_*            sequential times per application
//	BenchmarkFigure6_*           8-processor speedups, OpenMP (NOW, SMP
//	                             and hybrid NOW-of-SMPs backends), Tmk,
//	                             MPI
//	BenchmarkTable2_*            data and message volumes
//	BenchmarkMicro_*             Section 6 platform characteristics
//	BenchmarkAblation*           Section 3 flush vs semaphore/condvar
//
// The interesting output is the custom metrics (speedup, MB, msgs,
// virtual_ms) reported per benchmark; wall-clock ns/op only measures the
// simulator itself. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the test-scale workloads so the whole suite stays fast;
// `go run ./cmd/nowbench -all` regenerates the artifacts at paper scale.
package main

import (
	"fmt"
	"testing"

	"repro/internal/dsm"
	"repro/internal/harness"
)

const benchScale = harness.Test

func benchApp(b *testing.B, appName string, impl harness.Impl, procs int) {
	a, ok := harness.FindApp(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	seq := a.RunSeq(benchScale)
	for i := 0; i < b.N; i++ {
		res, err := harness.Verified(a, benchScale, impl, procs, dsm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 { // report the final run's metrics
			b.ReportMetric(seq.Time.Seconds()/res.Time.Seconds(), "speedup")
			b.ReportMetric(res.Time.Seconds()*1e3, "virtual_ms")
			b.ReportMetric(float64(res.Messages), "msgs")
			b.ReportMetric(float64(res.Bytes)/1e6, "MB")
		}
	}
}

// --- Table 1: sequential execution times -----------------------------

func benchSeq(b *testing.B, appName string) {
	a, ok := harness.FindApp(appName)
	if !ok {
		b.Fatalf("unknown app %s", appName)
	}
	for i := 0; i < b.N; i++ {
		res := a.RunSeq(benchScale)
		if i == b.N-1 {
			b.ReportMetric(res.Time.Seconds()*1e3, "virtual_ms")
		}
	}
}

func BenchmarkTable1_Sweep3D(b *testing.B) { benchSeq(b, "Sweep3D") }
func BenchmarkTable1_3DFFT(b *testing.B)   { benchSeq(b, "3D-FFT") }
func BenchmarkTable1_Water(b *testing.B)   { benchSeq(b, "Water") }
func BenchmarkTable1_TSP(b *testing.B)     { benchSeq(b, "TSP") }
func BenchmarkTable1_QSORT(b *testing.B)   { benchSeq(b, "QSORT") }
func BenchmarkTable1_LU(b *testing.B)      { benchSeq(b, "LU") }
func BenchmarkTable1_Barnes(b *testing.B)  { benchSeq(b, "Barnes") }

// --- Figure 6: speedups at 8 processors, all three versions ----------

func BenchmarkFigure6_Sweep3D_OpenMP(b *testing.B) { benchApp(b, "Sweep3D", harness.OMP, 8) }
func BenchmarkFigure6_Sweep3D_OMPSMP(b *testing.B) { benchApp(b, "Sweep3D", harness.OMPSMP, 8) }
func BenchmarkFigure6_Sweep3D_OMPHyb(b *testing.B) { benchApp(b, "Sweep3D", harness.OMPHybrid, 8) }
func BenchmarkFigure6_Sweep3D_Tmk(b *testing.B)    { benchApp(b, "Sweep3D", harness.Tmk, 8) }
func BenchmarkFigure6_Sweep3D_MPI(b *testing.B)    { benchApp(b, "Sweep3D", harness.MPI, 8) }

func BenchmarkFigure6_3DFFT_OpenMP(b *testing.B) { benchApp(b, "3D-FFT", harness.OMP, 8) }
func BenchmarkFigure6_3DFFT_OMPSMP(b *testing.B) { benchApp(b, "3D-FFT", harness.OMPSMP, 8) }
func BenchmarkFigure6_3DFFT_OMPHyb(b *testing.B) { benchApp(b, "3D-FFT", harness.OMPHybrid, 8) }
func BenchmarkFigure6_3DFFT_Tmk(b *testing.B)    { benchApp(b, "3D-FFT", harness.Tmk, 8) }
func BenchmarkFigure6_3DFFT_MPI(b *testing.B)    { benchApp(b, "3D-FFT", harness.MPI, 8) }

func BenchmarkFigure6_Water_OpenMP(b *testing.B) { benchApp(b, "Water", harness.OMP, 8) }
func BenchmarkFigure6_Water_OMPSMP(b *testing.B) { benchApp(b, "Water", harness.OMPSMP, 8) }
func BenchmarkFigure6_Water_OMPHyb(b *testing.B) { benchApp(b, "Water", harness.OMPHybrid, 8) }
func BenchmarkFigure6_Water_Tmk(b *testing.B)    { benchApp(b, "Water", harness.Tmk, 8) }
func BenchmarkFigure6_Water_MPI(b *testing.B)    { benchApp(b, "Water", harness.MPI, 8) }

func BenchmarkFigure6_TSP_OpenMP(b *testing.B) { benchApp(b, "TSP", harness.OMP, 8) }
func BenchmarkFigure6_TSP_OMPSMP(b *testing.B) { benchApp(b, "TSP", harness.OMPSMP, 8) }
func BenchmarkFigure6_TSP_OMPHyb(b *testing.B) { benchApp(b, "TSP", harness.OMPHybrid, 8) }
func BenchmarkFigure6_TSP_Tmk(b *testing.B)    { benchApp(b, "TSP", harness.Tmk, 8) }
func BenchmarkFigure6_TSP_MPI(b *testing.B)    { benchApp(b, "TSP", harness.MPI, 8) }

func BenchmarkFigure6_QSORT_OpenMP(b *testing.B) { benchApp(b, "QSORT", harness.OMP, 8) }
func BenchmarkFigure6_QSORT_OMPSMP(b *testing.B) { benchApp(b, "QSORT", harness.OMPSMP, 8) }
func BenchmarkFigure6_QSORT_OMPHyb(b *testing.B) { benchApp(b, "QSORT", harness.OMPHybrid, 8) }
func BenchmarkFigure6_QSORT_Tmk(b *testing.B)    { benchApp(b, "QSORT", harness.Tmk, 8) }
func BenchmarkFigure6_QSORT_MPI(b *testing.B)    { benchApp(b, "QSORT", harness.MPI, 8) }

func BenchmarkFigure6_LU_OpenMP(b *testing.B) { benchApp(b, "LU", harness.OMP, 8) }
func BenchmarkFigure6_LU_OMPSMP(b *testing.B) { benchApp(b, "LU", harness.OMPSMP, 8) }
func BenchmarkFigure6_LU_OMPHyb(b *testing.B) { benchApp(b, "LU", harness.OMPHybrid, 8) }
func BenchmarkFigure6_LU_Tmk(b *testing.B)    { benchApp(b, "LU", harness.Tmk, 8) }
func BenchmarkFigure6_LU_MPI(b *testing.B)    { benchApp(b, "LU", harness.MPI, 8) }

func BenchmarkFigure6_Barnes_OpenMP(b *testing.B) { benchApp(b, "Barnes", harness.OMP, 8) }
func BenchmarkFigure6_Barnes_OMPSMP(b *testing.B) { benchApp(b, "Barnes", harness.OMPSMP, 8) }
func BenchmarkFigure6_Barnes_OMPHyb(b *testing.B) { benchApp(b, "Barnes", harness.OMPHybrid, 8) }
func BenchmarkFigure6_Barnes_Tmk(b *testing.B)    { benchApp(b, "Barnes", harness.Tmk, 8) }
func BenchmarkFigure6_Barnes_MPI(b *testing.B)    { benchApp(b, "Barnes", harness.MPI, 8) }

// --- Table 2 is the traffic columns of the same runs -----------------
// (separate benchmarks so the table can be regenerated in isolation).

func BenchmarkTable2_Sweep3D_OpenMP(b *testing.B) { benchApp(b, "Sweep3D", harness.OMP, 8) }
func BenchmarkTable2_3DFFT_OpenMP(b *testing.B)   { benchApp(b, "3D-FFT", harness.OMP, 8) }
func BenchmarkTable2_Water_OpenMP(b *testing.B)   { benchApp(b, "Water", harness.OMP, 8) }
func BenchmarkTable2_TSP_OpenMP(b *testing.B)     { benchApp(b, "TSP", harness.OMP, 8) }
func BenchmarkTable2_QSORT_OpenMP(b *testing.B)   { benchApp(b, "QSORT", harness.OMP, 8) }
func BenchmarkTable2_LU_OpenMP(b *testing.B)      { benchApp(b, "LU", harness.OMP, 8) }
func BenchmarkTable2_Barnes_OpenMP(b *testing.B)  { benchApp(b, "Barnes", harness.OMP, 8) }

// --- Section 6 microbenchmarks ---------------------------------------

func BenchmarkMicro_Platform(b *testing.B) {
	var m harness.MicroResults
	var err error
	for i := 0; i < b.N; i++ {
		m, err = harness.Micro()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.UDPRoundTrip.Micros(), "udp_rtt_µs")
	b.ReportMetric(m.LockLow.Micros(), "lock_low_µs")
	b.ReportMetric(m.LockHigh.Micros(), "lock_high_µs")
	b.ReportMetric(m.Barrier8.Micros(), "barrier8_µs")
	b.ReportMetric(m.DiffLow.Micros(), "diff_low_µs")
	b.ReportMetric(m.DiffHigh.Micros(), "diff_high_µs")
	b.ReportMetric(m.TCPRoundTrip.Micros(), "tcp_rtt_µs")
	b.ReportMetric(m.TCPBandwidth, "tcp_MB/s")
}

// --- Section 3 ablations ----------------------------------------------

func BenchmarkAblationPipeline(b *testing.B) {
	var res harness.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.AblationPipeline(20, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FlushTime.Seconds()/res.NewTime.Seconds(), "sema_speedup")
	b.ReportMetric(float64(res.FlushMsgs), "flush_msgs")
	b.ReportMetric(float64(res.NewMsgs), "sema_msgs")
}

func BenchmarkAblationTaskQueue(b *testing.B) {
	var res harness.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.AblationTaskQueue(32, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FlushTime.Seconds()/res.NewTime.Seconds(), "condvar_speedup")
	b.ReportMetric(float64(res.FlushMsgs), "flush_msgs")
	b.ReportMetric(float64(res.NewMsgs), "condvar_msgs")
}

func BenchmarkAblationFlushCost(b *testing.B) {
	var rows []harness.FlushCostRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = harness.AblationFlushCost([]int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.FlushMsgs), fmt.Sprintf("flush_msgs_p%d", r.Procs))
	}
}
