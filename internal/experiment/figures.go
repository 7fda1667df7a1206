package experiment

import (
	"fmt"

	"repro/internal/baseline/fixedstack"
	"repro/internal/baseline/mate"
	"repro/internal/baseline/tkernel"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// Figure4 reproduces the code-inflation comparison: for each of the seven
// kernel benchmarks, the native size and the naturalized sizes under
// SenSmart (rewritten code / shift table / trampolines) and the t-kernel.
func (r Runner) Figure4() (*Table, error) {
	t := &Table{
		ID:    "fig4",
		Title: "Code inflation of kernel benchmark programs (Figure 4)",
		Header: []string{"Program", "Native(B)", "SenSmart rewritten", "SenSmart shift",
			"SenSmart tramp", "SenSmart total", "Inflation", "t-kernel", "t-k inflation"},
	}
	kbs := progs.KernelBenchmarks()
	rows, err := runPoints(r.workers(), len(kbs), runProgress(r, "fig4", len(kbs), nil,
		func(i int) ([]string, error) {
			return figure4Row(kbs[i])
		}))
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper: SenSmart inflation stays within 200%; t-kernel considerably larger")
	return t, nil
}

// figure4Row measures one benchmark's code inflation.
func figure4Row(kb progs.KernelBenchmark) ([]string, error) {
	nat, err := rewriter.Rewrite(kb.Program, rewriter.Config{})
	if err != nil {
		return nil, err
	}
	tk, err := tkernel.Naturalize(kb.Program)
	if err != nil {
		return nil, err
	}
	native := kb.Program.SizeBytes()
	total := nat.Program.SizeBytes()
	return []string{
		kb.Name,
		itoa(native),
		itoa(2 * nat.CodeWords),
		itoa(2 * nat.ShiftWords),
		itoa(2 * nat.TrampolineWords),
		itoa(total),
		pct(uint64(total-native), uint64(native)),
		itoa(tk.CodeBytes()),
		pct(uint64(tk.CodeBytes()-native), uint64(native)),
	}, nil
}

// Figure5 reproduces the execution-time comparison of the seven kernel
// benchmarks: native, SenSmart (with the memory-protection share of its
// overhead broken out), and the t-kernel (steady state, warm-up excluded as
// in the paper's Figure 5).
func (r Runner) Figure5() (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "Execution time of kernel benchmark programs, seconds (Figure 5)",
		Header: []string{"Program", "Native", "SenSmart mem-prot", "SenSmart total",
			"t-kernel", "SenSmart/native", "t-kernel/native"},
	}
	kbs := progs.KernelBenchmarks()
	rows, err := runPoints(r.workers(), len(kbs), runProgress(r, "fig5", len(kbs), nil,
		func(i int) ([]string, error) {
			return figure5Row(kbs[i])
		}))
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"paper: SenSmart shows a moderate slowdown; t-kernel is faster on most programs",
		"t-kernel warm-up rewriting is excluded here (it appears in Figure 6a)")
	return t, nil
}

// figure5Row runs one benchmark natively, under SenSmart, and under the
// t-kernel, each on a machine of its own.
func figure5Row(kb progs.KernelBenchmark) ([]string, error) {
	native, err := progs.RunNative(kb.Program.Clone(), 2_000_000_000)
	if err != nil {
		return nil, err
	}
	sys, err := runSenSmart(kernel.Config{}, 4_000_000_000, kb.Program.Clone())
	if err != nil {
		return nil, err
	}
	// Split the SenSmart overhead: memory protection (address
	// translation and SP services) versus everything else.
	memProt := uint64(0)
	for i, n := range sys.Kernel().Stats.ServiceCalls {
		switch rewriter.Class(i) {
		case rewriter.ClassDirectIO:
			memProt += n * kernel.CostDirectIO
		case rewriter.ClassDirectMem:
			memProt += n * kernel.CostDirectMem
		case rewriter.ClassIndirectMem:
			memProt += n * kernel.CostIndHeap // representative row
		case rewriter.ClassSPRead:
			memProt += n * kernel.CostGetSP
		case rewriter.ClassSPWrite:
			memProt += n * kernel.CostSetSP
		case rewriter.ClassLpm:
			memProt += n * kernel.CostProgMem
		}
	}
	tk := mcu.New()
	if err := runTKernel(tk, kb.Program, false, 4_000_000_000); err != nil {
		return nil, err
	}
	nativeCycles, smartCycles, tkCycles := native.Cycles, sys.Machine().Cycles(), tk.Cycles()
	return []string{
		kb.Name,
		seconds(nativeCycles),
		seconds(nativeCycles + memProt),
		seconds(smartCycles),
		seconds(tkCycles),
		fmt.Sprintf("%.2fx", float64(smartCycles)/float64(nativeCycles)),
		fmt.Sprintf("%.2fx", float64(tkCycles)/float64(nativeCycles)),
	}, nil
}

// Figure6Point is one x-axis point of the PeriodicTask experiment.
type Figure6Point struct {
	Instructions   int
	NativeCycles   uint64
	NativeUtil     float64
	SenSmartCycles uint64
	SenSmartUtil   float64
	TKernelCycles  uint64 // includes the warm-up rewriting delay
	TKernelUtil    float64
	MateCycles     uint64
}

// Figure6 sweeps the PeriodicTask computation size and measures execution
// time and CPU utilization under native execution, SenSmart, the t-kernel
// (warm-up included, as in Figure 6a) and the Maté-style VM (Figure 6c).
// activations scales the experiment length (the paper uses 300).
func (r Runner) Figure6(sizes []int, activations int) ([]Figure6Point, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000, 80_000, 90_000, 100_000}
	}
	if activations == 0 {
		activations = 300
	}
	return runPoints(r.workers(), len(sizes), runProgress(r, "fig6", len(sizes),
		func(p Figure6Point) uint64 { return p.SenSmartCycles },
		func(i int) (Figure6Point, error) {
			return figure6Point(sizes[i], activations)
		}))
}

// figure6Point measures one computation size under all four systems.
func figure6Point(size, activations int) (Figure6Point, error) {
	pt := Figure6Point{Instructions: size}
	params := progs.PeriodicParams{Instructions: size, Activations: activations}

	nativeProg := progs.PeriodicTaskNative(params)
	native, err := progs.RunNative(nativeProg, 30_000_000_000)
	if err != nil {
		return pt, err
	}
	pt.NativeCycles = native.Cycles
	pt.NativeUtil = util(native.Machine)

	sys, err := runSenSmart(kernel.Config{}, 30_000_000_000, progs.PeriodicTask(params))
	if err != nil {
		return pt, err
	}
	pt.SenSmartCycles = sys.Machine().Cycles()
	pt.SenSmartUtil = util(sys.Machine())

	tk := mcu.New()
	// Figure 6a includes the ~1 s warm-up.
	if err := runTKernel(tk, nativeProg, true, 30_000_000_000); err != nil {
		return pt, err
	}
	pt.TKernelCycles = tk.Cycles()
	pt.TKernelUtil = util(tk)

	code, err := mate.PeriodicProgram(size, activations, params.PeriodTicks)
	if err != nil {
		return pt, err
	}
	vm := mate.New(code)
	if err := vm.Run(0); err != nil {
		return pt, err
	}
	pt.MateCycles = vm.Cycles
	return pt, nil
}

// util is the share of m's cycles spent awake.
func util(m *mcu.Machine) float64 {
	return 1 - float64(m.IdleCycles())/float64(m.Cycles())
}

// Figure6Table renders the sweep in the layout of Figures 6(a)-(c).
func Figure6Table(points []Figure6Point) *Table {
	t := &Table{
		ID:    "fig6",
		Title: "PeriodicTask: execution time (s) and CPU utilization (Figure 6)",
		Header: []string{"Insns", "Native(s)", "t-kernel(s)", "SenSmart(s)", "Mate(s)",
			"NativeUtil", "SenSmartUtil"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			itoa(p.Instructions),
			seconds(p.NativeCycles),
			seconds(p.TKernelCycles),
			seconds(p.SenSmartCycles),
			seconds(p.MateCycles),
			fmt.Sprintf("%.1f%%", 100*p.NativeUtil),
			fmt.Sprintf("%.1f%%", 100*p.SenSmartUtil),
		})
	}
	t.Notes = append(t.Notes,
		"paper: SenSmart tracks native below ~60k instructions, then departs sharply (6a)",
		"paper: utilization saturates at the same knee (6b); Mate is orders of magnitude slower (6c)",
		"t-kernel column includes its ~1 s on-node rewriting warm-up, hence the constant offset")
	return t
}

// Figure7Point is one x-axis point of the stack-versatility experiment.
type Figure7Point struct {
	NodesPerTree   int
	AdmittedTasks  int
	SurvivingTasks int
	AvgStackAlloc  float64 // bytes per surviving search task
	MaxStackUsed   uint16  // high-water mark across tasks
	Relocations    int
	Terminations   int
}

// Figure7 runs the sense-and-send binary-tree workload: as many search
// tasks as admission allows, measured after a fixed simulated duration.
func (r Runner) Figure7(nodesPerTree []int, budgetCycles uint64) ([]Figure7Point, error) {
	if len(nodesPerTree) == 0 {
		nodesPerTree = []int{8, 16, 24, 32, 40}
	}
	if budgetCycles == 0 {
		budgetCycles = 40_000_000
	}
	return runPoints(r.workers(), len(nodesPerTree), runProgress(r, "fig7", len(nodesPerTree),
		func(Figure7Point) uint64 { return budgetCycles },
		func(i int) (Figure7Point, error) {
			return figure7Point(nodesPerTree[i], budgetCycles)
		}))
}

// figure7Point fills one node with tree-search tasks and measures survival.
func figure7Point(n int, budgetCycles uint64) (Figure7Point, error) {
	pt := Figure7Point{NodesPerTree: n}
	sys, err := fillNode(kernel.Config{InitialStack: 64}, budgetCycles, func(i int) (*image.Program, error) {
		return progs.TreeSearch(progs.TreeSearchParams{
			Trees:        6,
			NodesPerTree: n,
			Seed:         uint16(0xACE1 + 73*i),
		})
	})
	if err != nil {
		return pt, err
	}
	k := sys.Kernel()
	pt.AdmittedTasks = len(k.Tasks)
	var allocSum uint64
	for _, task := range k.Tasks {
		if task.State() != kernel.TaskTerminated {
			pt.SurvivingTasks++
			allocSum += uint64(task.StackAlloc())
		}
		if task.MaxStackUsed > pt.MaxStackUsed {
			pt.MaxStackUsed = task.MaxStackUsed
		}
	}
	if pt.SurvivingTasks > 0 {
		pt.AvgStackAlloc = float64(allocSum) / float64(pt.SurvivingTasks)
	}
	pt.Relocations = k.Stats.Relocations
	pt.Terminations = k.Stats.Terminations
	return pt, nil
}

// Figure7Table renders the stack-versatility sweep.
func Figure7Table(points []Figure7Point) *Table {
	t := &Table{
		ID:    "fig7",
		Title: "Binary-tree search under SenSmart (Figure 7)",
		Header: []string{"Nodes/tree", "Admitted", "Schedulable", "AvgStackAlloc(B)",
			"MaxStackUsed(B)", "Relocations", "Terminations"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			itoa(p.NodesPerTree),
			itoa(p.AdmittedTasks),
			itoa(p.SurvivingTasks),
			fmt.Sprintf("%.0f", p.AvgStackAlloc),
			itoa(int(p.MaxStackUsed)),
			itoa(p.Relocations),
			itoa(p.Terminations),
		})
	}
	t.Notes = append(t.Notes,
		"paper: schedulable tasks fall as trees grow; avg allocation stays below peak demand;",
		"relocation counts stay modest (< 50); terminations free memory the survivors absorb")
	return t
}

// Figure8Point compares SenSmart and the fixed-stack (LiteOS-like) baseline.
type Figure8Point struct {
	NodesPerTree  int
	SenSmartTasks int
	FixedTasks    int
}

// Figure8 grants SenSmart the same application memory the LiteOS-like
// baseline has (which loses 2 KB to kernel static data) and compares how
// many two-tree search tasks each can schedule.
func (r Runner) Figure8(nodesPerTree []int, budgetCycles uint64) ([]Figure8Point, error) {
	if len(nodesPerTree) == 0 {
		nodesPerTree = []int{10, 20, 30, 40, 50, 60}
	}
	if budgetCycles == 0 {
		budgetCycles = 40_000_000
	}
	return runPoints(r.workers(), len(nodesPerTree), runProgress(r, "fig8", len(nodesPerTree),
		func(Figure8Point) uint64 { return budgetCycles },
		func(i int) (Figure8Point, error) {
			return figure8Point(nodesPerTree[i], budgetCycles)
		}))
}

// figure8Point compares schedulable task counts at one tree size.
func figure8Point(n int, budgetCycles uint64) (Figure8Point, error) {
	// The LiteOS-style application area after its 2 KB of static data.
	liteArea := uint16(mcu.DataSize - mcu.SRAMBase - fixedstack.KernelStaticData)
	const worstStack = 224 // programmer-declared worst case (~15 B x 15 levels)

	pt := Figure8Point{NodesPerTree: n}
	prog, err := progs.TreeSearch(progs.TreeSearchParams{
		Trees: 2, NodesPerTree: n,
	})
	if err != nil {
		return pt, err
	}
	nat, err := rewriter.Rewrite(prog, rewriter.Config{})
	if err != nil {
		return pt, err
	}
	pt.FixedTasks = fixedstack.MaxSchedulable(fixedstack.Config{
		WorstCaseStack: worstStack,
	}, nat)

	// SenSmart with the same memory: admit, run, count survivors.
	cfg := kernel.Config{AppLimit: liteArea, InitialStack: 64}
	sys, err := fillNode(cfg, budgetCycles, func(i int) (*image.Program, error) {
		return progs.TreeSearch(progs.TreeSearchParams{
			Trees: 2, NodesPerTree: n, Seed: uint16(0xACE1 + 131*i),
		})
	})
	if err != nil {
		return pt, err
	}
	for _, task := range sys.Kernel().Tasks {
		if task.State() != kernel.TaskTerminated {
			pt.SenSmartTasks++
		}
	}
	return pt, nil
}

// Figure8Table renders the SenSmart-vs-LiteOS comparison.
func Figure8Table(points []Figure8Point) *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Schedulable search tasks: SenSmart vs fixed-stack LiteOS-like (Figure 8)",
		Header: []string{"Nodes/tree", "SenSmart", "LiteOS-like"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{itoa(p.NodesPerTree), itoa(p.SenSmartTasks), itoa(p.FixedTasks)})
	}
	t.Notes = append(t.Notes,
		"paper: versatile stack management lets SenSmart schedule more tasks at every size")
	return t
}
