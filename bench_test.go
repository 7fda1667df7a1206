package sensmart

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (run with `go test -bench=. -benchmem`), plus
// ablation benchmarks for the design choices DESIGN.md calls out and
// substrate micro-benchmarks. The custom b.ReportMetric series mirror the
// rows the paper reports; EXPERIMENTS.md records paper-vs-measured.

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/avr/asm"
	"repro/internal/baseline/tkernel"
	"repro/internal/experiment"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// BenchmarkTable1FeatureMatrix regenerates the qualitative comparison
// matrix (Table I).
func BenchmarkTable1FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiment.Table1()
		if len(t.Rows) != 8 {
			b.Fatal("feature matrix incomplete")
		}
	}
}

// BenchmarkTable2Overheads measures the kernel-service overheads (Table II)
// and reports the headline rows as metrics.
func BenchmarkTable2Overheads(b *testing.B) {
	var tab *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiment.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range tab.Rows {
		if v, convErr := strconv.ParseFloat(row[1], 64); convErr == nil {
			b.ReportMetric(v, "cyc/"+metricName(row[0]))
		}
	}
}

// BenchmarkFigure4CodeInflation regenerates the code-inflation comparison
// (Figure 4) and reports SenSmart's inflation per benchmark.
func BenchmarkFigure4CodeInflation(b *testing.B) {
	var tab *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiment.Runner{}.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range tab.Rows {
		native, _ := strconv.ParseFloat(row[1], 64)
		total, _ := strconv.ParseFloat(row[5], 64)
		b.ReportMetric(100*(total-native)/native, "infl%/"+row[0])
	}
}

// BenchmarkFigure5ExecutionTime regenerates the kernel-benchmark timing
// comparison (Figure 5), reporting the SenSmart/native slowdown factors.
func BenchmarkFigure5ExecutionTime(b *testing.B) {
	var tab *experiment.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = experiment.Runner{}.Figure5()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range tab.Rows {
		native, _ := strconv.ParseFloat(row[1], 64)
		smart, _ := strconv.ParseFloat(row[3], 64)
		if native > 0 {
			b.ReportMetric(smart/native, "slowdown/"+row[0])
		}
	}
}

// fig6Sizes is a reduced sweep for the bench harness (the full 10-point
// 300-activation sweep belongs to `sensmart-bench -exp fig6`).
var fig6Sizes = []int{20_000, 60_000, 100_000}

// BenchmarkFigure6aPeriodicTime regenerates the PeriodicTask execution-time
// sweep (Figure 6a).
func BenchmarkFigure6aPeriodicTime(b *testing.B) {
	var points []experiment.Figure6Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiment.Runner{}.Figure6(fig6Sizes, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(float64(p.SenSmartCycles)/float64(p.NativeCycles),
			fmt.Sprintf("xnative/%dk", p.Instructions/1000))
	}
}

// BenchmarkFigure6bUtilization regenerates the CPU-utilization sweep
// (Figure 6b).
func BenchmarkFigure6bUtilization(b *testing.B) {
	var points []experiment.Figure6Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiment.Runner{}.Figure6(fig6Sizes, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(100*p.SenSmartUtil, fmt.Sprintf("util%%/%dk", p.Instructions/1000))
	}
}

// BenchmarkFigure6cMate regenerates the Maté-VM comparison (Figure 6c).
func BenchmarkFigure6cMate(b *testing.B) {
	var points []experiment.Figure6Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiment.Runner{}.Figure6(fig6Sizes, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(float64(p.MateCycles)/float64(p.NativeCycles),
			fmt.Sprintf("matexnative/%dk", p.Instructions/1000))
	}
}

// BenchmarkFigure7StackVersatility regenerates the binary-tree search
// stack-versatility experiment (Figure 7).
func BenchmarkFigure7StackVersatility(b *testing.B) {
	var points []experiment.Figure7Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiment.Runner{}.Figure7([]int{8, 24, 40}, 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(float64(p.SurvivingTasks), fmt.Sprintf("tasks/n%d", p.NodesPerTree))
		b.ReportMetric(p.AvgStackAlloc, fmt.Sprintf("stackB/n%d", p.NodesPerTree))
		b.ReportMetric(float64(p.Relocations), fmt.Sprintf("relocs/n%d", p.NodesPerTree))
	}
}

// BenchmarkFigure8VsLiteOS regenerates the SenSmart-vs-fixed-stack
// comparison (Figure 8).
func BenchmarkFigure8VsLiteOS(b *testing.B) {
	var points []experiment.Figure8Point
	var err error
	for i := 0; i < b.N; i++ {
		points, err = experiment.Runner{}.Figure8([]int{10, 30, 50}, 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(float64(p.SenSmartTasks), fmt.Sprintf("sensmart/n%d", p.NodesPerTree))
		b.ReportMetric(float64(p.FixedTasks), fmt.Sprintf("liteos/n%d", p.NodesPerTree))
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// BenchmarkAblationGrouping quantifies the grouped-memory-access
// optimization (Section IV-C2) on a double-word copy loop — the "2 or 4
// memory access instructions performed together" pattern the paper
// describes.
func BenchmarkAblationGrouping(b *testing.B) {
	prog, err := asm.Assemble("copy32", `
.data
buf: .space 64
.text
main:
    ldi r20, 200         ; outer repetitions
outer:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    ldi r17, 8           ; 8 double-words of 4 bytes
copy:
    ld r0, X+            ; grouped 4-access run
    ld r1, X+
    ld r2, X+
    ld r3, X+
    add r0, r1
    dec r17
    brne copy
    dec r20
    brne outer
    break
`)
	if err != nil {
		b.Fatal(err)
	}
	run := func(cfg rewriter.Config) uint64 {
		nat, err := rewriter.Rewrite(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		m := mcu.New()
		k := kernel.New(m, kernel.Config{})
		if _, err := k.AddTask("crc", nat); err != nil {
			b.Fatal(err)
		}
		if err := k.Boot(); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
		return m.Cycles()
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(rewriter.Config{})
		without = run(rewriter.Config{NoGrouping: true})
	}
	b.ReportMetric(float64(without)/float64(with), "speedup")
}

// BenchmarkAblationTrampolineMerge quantifies trampoline merging: total
// trampoline bytes across the seven kernel benchmarks with and without it.
func BenchmarkAblationTrampolineMerge(b *testing.B) {
	var with, without int
	for i := 0; i < b.N; i++ {
		with, without = 0, 0
		for _, kb := range progs.KernelBenchmarks() {
			m, err := rewriter.Rewrite(kb.Program, rewriter.Config{})
			if err != nil {
				b.Fatal(err)
			}
			u, err := rewriter.Rewrite(kb.Program, rewriter.Config{NoTrampolineMerge: true})
			if err != nil {
				b.Fatal(err)
			}
			with += 2 * m.TrampolineWords
			without += 2 * u.TrampolineWords
		}
	}
	b.ReportMetric(float64(without-with), "bytes-saved")
}

// BenchmarkAblationRelocation quantifies stack relocation itself: how many
// tree-search tasks survive with and without it, in the same memory.
func BenchmarkAblationRelocation(b *testing.B) {
	run := func(disable bool) int {
		m := mcu.New()
		k := kernel.New(m, kernel.Config{InitialStack: 64, DisableRelocation: disable})
		for i := 0; i < 8; i++ {
			prog, err := progs.TreeSearch(progs.TreeSearchParams{
				Trees: 4, NodesPerTree: 20, Seed: uint16(0xACE1 + 7*i),
			})
			if err != nil {
				b.Fatal(err)
			}
			nat, err := rewriter.Rewrite(prog, rewriter.Config{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := k.AddTask(fmt.Sprintf("t%d", i), nat); err != nil {
				break
			}
		}
		if err := k.Boot(); err != nil {
			b.Fatal(err)
		}
		if err := k.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		alive := 0
		for _, t := range k.Tasks {
			if t.State() != kernel.TaskTerminated {
				alive++
			}
		}
		return alive
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(float64(with), "tasks-with-reloc")
	b.ReportMetric(float64(without), "tasks-without")
}

// --- Substrate micro-benchmarks ---

// BenchmarkSimulatorThroughput measures raw simulated instructions per
// second of the MCU core (the substrate every experiment stands on).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog := progs.LFSR(1_000_000)
	m := mcu.New()
	if err := m.LoadFlash(0, prog.Words); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.SetPC(prog.Entry)
		_ = m.Run(8_000_000)
		cycles += m.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkRewriter measures base-station rewriting throughput.
func BenchmarkRewriter(b *testing.B) {
	prog := progs.CRC(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewriter.Rewrite(prog, rewriter.Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prog.SizeBytes()), "bytes/prog")
}

// BenchmarkTKernelNaturalize measures the t-kernel baseline's rewriting.
func BenchmarkTKernelNaturalize(b *testing.B) {
	prog := progs.CRC(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tkernel.Naturalize(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// metricName compresses a row label into a metric suffix.
func metricName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c == ' ':
			out = append(out, '-')
		}
	}
	if len(out) > 24 {
		out = out[:24]
	}
	return string(out)
}

// BenchmarkAblationCrossProgramMerge quantifies cross-program trampoline
// merging on a node that co-hosts all seven kernel benchmarks.
func BenchmarkAblationCrossProgramMerge(b *testing.B) {
	var shared, separate int
	for i := 0; i < b.N; i++ {
		var nats []*rewriter.Naturalized
		for _, kb := range progs.KernelBenchmarks() {
			nat, err := rewriter.Rewrite(kb.Program, rewriter.Config{})
			if err != nil {
				b.Fatal(err)
			}
			nats = append(nats, nat)
		}
		shared, separate = rewriter.SharedTrampolineWords(nats...)
	}
	b.ReportMetric(float64(2*(separate-shared)), "bytes-saved")
}
