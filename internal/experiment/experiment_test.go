package experiment

import (
	"strconv"
	"strings"
	"testing"
)

func TestTable1Static(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v has %d cells, want %d", row[0], len(row), len(tab.Header))
		}
	}
	if !strings.Contains(tab.Render(), "Stack Relocation") {
		t.Error("render missing stack-relocation row")
	}
}

func TestTable2Measured(t *testing.T) {
	tab, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	get := func(name string) int {
		t.Helper()
		for _, row := range tab.Rows {
			if row[0] == name {
				v, err := strconv.Atoi(row[1])
				if err != nil {
					t.Fatalf("row %q value %q", name, row[1])
				}
				return v
			}
		}
		t.Fatalf("no row %q", name)
		return 0
	}
	// The measured overheads must reproduce Table II (exactly, since the
	// kernel charges those constants per service).
	if v := get("mem direct I/O area"); v != 2 {
		t.Errorf("direct I/O overhead = %d, want 2", v)
	}
	if v := get("mem direct others (heap)"); v != 28 {
		t.Errorf("direct heap overhead = %d, want 28", v)
	}
	if v := get("mem indirect I/O area"); v != 54 {
		t.Errorf("indirect I/O overhead = %d, want 54", v)
	}
	if v := get("mem indirect heap"); v != 80 {
		t.Errorf("indirect heap overhead = %d, want 80", v)
	}
	if v := get("mem indirect stack frame"); v != 82 {
		t.Errorf("indirect stack overhead = %d, want 82", v)
	}
	if v := get("get stack pointer"); v != 45 {
		t.Errorf("get SP overhead = %d, want 45", v)
	}
	if v := get("set stack pointer"); v != 94 {
		t.Errorf("set SP overhead = %d, want 94", v)
	}
	if v := get("stack operation (push, native)"); v != 0 {
		t.Errorf("native push/pop overhead = %d, want 0", v)
	}
	if v := get("program memory (ijmp)"); v < 300 || v > 450 {
		t.Errorf("ijmp overhead = %d, want ~376", v)
	}
	if v := get("system initialization"); v < 5738 || v > 5800 {
		t.Errorf("sysinit = %d, want ~5738", v)
	}
}

func TestFigure4Shapes(t *testing.T) {
	tab, err := Runner{}.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 benchmarks", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		native, _ := strconv.Atoi(row[1])
		total, _ := strconv.Atoi(row[5])
		tk, _ := strconv.Atoi(row[7])
		if total <= native {
			t.Errorf("%s: SenSmart total %d should exceed native %d", row[0], total, native)
		}
		// Paper: SenSmart inflation within 200% (total <= 3x native).
		if total > 3*native {
			t.Errorf("%s: SenSmart inflation beyond 200%%: %d vs %d", row[0], total, native)
		}
		// Paper: t-kernel considerably larger than SenSmart.
		if tk <= total {
			t.Errorf("%s: t-kernel %d should exceed SenSmart %d", row[0], tk, total)
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	tab, err := Runner{}.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.Render())
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	slower := 0
	for _, row := range tab.Rows {
		native, _ := strconv.ParseFloat(row[1], 64)
		smart, _ := strconv.ParseFloat(row[3], 64)
		tk, _ := strconv.ParseFloat(row[4], 64)
		if smart < native {
			t.Errorf("%s: SenSmart %.3fs cannot beat native %.3fs", row[0], smart, native)
		}
		if tk < native {
			t.Errorf("%s: t-kernel %.3fs cannot beat native %.3fs", row[0], tk, native)
		}
		if tk < smart {
			slower++
		}
	}
	// Paper: the t-kernel is faster than SenSmart on most programs.
	if slower < 4 {
		t.Errorf("t-kernel faster on only %d/7 programs; paper shows it ahead on most", slower)
	}
}

func TestFigure6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	sizes := []int{10_000, 40_000, 70_000, 100_000}
	points, err := Runner{}.Figure6(sizes, 40)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Figure6Table(points).Render())
	small, big := points[0], points[len(points)-1]
	// Below the knee SenSmart tracks native closely.
	ratioSmall := float64(small.SenSmartCycles) / float64(small.NativeCycles)
	if ratioSmall > 1.15 {
		t.Errorf("small size: SenSmart/native = %.2f, want close to 1", ratioSmall)
	}
	// Past the knee SenSmart departs sharply.
	ratioBig := float64(big.SenSmartCycles) / float64(big.NativeCycles)
	if ratioBig < 1.5 {
		t.Errorf("large size: SenSmart/native = %.2f, want a clear knee", ratioBig)
	}
	// t-kernel pays its ~1 s warm-up, so it is slower than SenSmart at
	// small computation sizes (the paper's observation).
	if small.TKernelCycles <= small.SenSmartCycles {
		t.Errorf("t-kernel %d should trail SenSmart %d at small sizes (warm-up)",
			small.TKernelCycles, small.SenSmartCycles)
	}
	// Utilization grows with computation size and saturates.
	if small.SenSmartUtil >= big.SenSmartUtil {
		t.Error("SenSmart utilization should grow with computation size")
	}
	if big.SenSmartUtil < 0.9 {
		t.Errorf("SenSmart utilization at 100k = %.2f, want saturation", big.SenSmartUtil)
	}
	// Mate is at least an order of magnitude slower than native.
	if float64(big.MateCycles) < 5*float64(big.NativeCycles) {
		t.Errorf("Mate %d vs native %d: interpretation penalty too small",
			big.MateCycles, big.NativeCycles)
	}
}

func TestFigure7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	points, err := Runner{}.Figure7([]int{8, 24, 40}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Figure7Table(points).Render())
	// Larger trees -> fewer schedulable tasks.
	if points[0].SurvivingTasks <= points[len(points)-1].SurvivingTasks {
		t.Errorf("schedulable tasks should fall with tree size: %+v", points)
	}
	for _, p := range points {
		if p.SurvivingTasks == 0 {
			t.Errorf("nodes=%d: no tasks survived", p.NodesPerTree)
		}
		if p.Relocations == 0 {
			t.Errorf("nodes=%d: no relocations; the initial 64 B stack must force some", p.NodesPerTree)
		}
		// Paper: tasks run with average allocations below their peak need.
		if p.SurvivingTasks > 1 && p.AvgStackAlloc >= float64(p.MaxStackUsed)*2 {
			t.Errorf("nodes=%d: avg alloc %.0f not economical vs peak %d",
				p.NodesPerTree, p.AvgStackAlloc, p.MaxStackUsed)
		}
	}
}

func TestFigure8Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	points, err := Runner{}.Figure8([]int{10, 30, 50}, 20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + Figure8Table(points).Render())
	for _, p := range points {
		if p.SenSmartTasks <= p.FixedTasks {
			t.Errorf("nodes=%d: SenSmart %d should beat fixed-stack %d",
				p.NodesPerTree, p.SenSmartTasks, p.FixedTasks)
		}
	}
}
