package experiment

import (
	"fmt"

	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/progs"
	"repro/internal/rewriter"
	"repro/internal/trace"
)

// overheadPoint is one benchmark's kernel-overhead breakdown.
type overheadPoint struct {
	name    string
	metrics *trace.Metrics
}

// KernelOverhead runs the seven kernel benchmarks with tracing enabled and
// reports where the kernel's cycles go per benchmark: service overheads,
// context switches, relocation and boot, against the application cycles —
// the per-phase attribution the ROADMAP's hot-path work needs. Each point
// also cross-checks the recorded KTRAP windows against the kernel's
// per-class cycle ledger, so the harness fails loudly if the trace and the
// Table II cost model in cost.go ever drift apart.
func (r Runner) KernelOverhead() (*Table, error) {
	benches := progs.KernelBenchmarks()
	points, err := runPoints(r.workers(), len(benches), runProgress(r, "overhead", len(benches),
		func(p overheadPoint) uint64 { return p.metrics.TotalCycles },
		func(i int) (overheadPoint, error) {
			_, m, err := TraceRun(4_000_000_000, benches[i].Program.Clone())
			if err != nil {
				return overheadPoint{}, fmt.Errorf("%s: %w", benches[i].Name, err)
			}
			return overheadPoint{name: benches[i].Name, metrics: m}, nil
		}))
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:    "overhead",
		Title: "Kernel-overhead breakdown per benchmark (cycles)",
		Header: []string{"benchmark", "total", "app", "kernel", "kernel%",
			"services", "switch", "reloc", "boot", "traps", "events"},
	}
	for _, p := range points {
		m := p.metrics
		var traps uint64
		for _, s := range m.Services {
			traps += s.Calls
		}
		busy := m.TotalCycles - m.IdleCycles
		tbl.Rows = append(tbl.Rows, []string{
			p.name,
			utoa(m.TotalCycles),
			utoa(m.AppCycles),
			utoa(m.KernelCycles),
			pct(m.KernelCycles, busy),
			utoa(m.ServiceOverheadCycles),
			utoa(m.SwitchCycles),
			utoa(m.RelocCycles),
			utoa(m.BootCycles),
			utoa(traps),
			itoa(m.Events),
		})
	}
	tbl.Notes = append(tbl.Notes,
		"kernel% = kernel cycles / busy (non-idle) cycles; services column is Table II overhead summed over all KTRAP dispatches",
		"each run's KTRAP trace windows were reconciled against the kernel's per-class cycle ledger (cost.go)")
	return tbl, nil
}

// TraceRun boots one traced SenSmart node with one task per program, runs
// it to completion (hitting limit first is an error), reconciles the trap
// windows against the kernel's cycle ledger, and returns the recorder plus
// the metrics snapshot — one KernelOverhead point, and the backing for the
// -trace/-metrics flags of sensmart-bench.
func TraceRun(limit uint64, programs ...*image.Program) (*trace.Recorder, *trace.Metrics, error) {
	rec := trace.New()
	sys, err := runSenSmart(kernel.Config{Trace: rec}, limit, programs...)
	if err != nil {
		return nil, nil, err
	}
	k := sys.Kernel()
	if err := ReconcileTrapCycles(rec.Events(), &k.Stats, k.Symbolizer().Name); err != nil {
		return nil, nil, err
	}
	return rec, sys.Metrics(), nil
}

// ReconcileTrapCycles checks the designed cycle-decomposition invariant over
// a recorded stream: for every service class, the sum of trap-window clock
// deltas minus the relocation/compaction/switch/idle cycles recorded inside
// those windows must equal the cycles the kernel's ledger says it charged
// for that class (Stats.ServiceCycles). Any drift between the trace layer
// and the cost model in cost.go fails here. sym resolves a flash word
// address to a human-readable site (nil falls back to raw addresses), so a
// failure names the offending trap site, not just a number.
func ReconcileTrapCycles(events []trace.Event, stats *kernel.Stats, sym func(pc uint32) string) error {
	site := func(pc uint32) string {
		if sym == nil {
			return fmt.Sprintf("pc %#x", pc)
		}
		return fmt.Sprintf("pc %#x in %s", pc, sym(pc))
	}
	var window [16]uint64 // per-class: sum of (exit - enter) - nested non-service charges
	var sites [16]map[uint32]uint64
	var open = map[int32]trace.Event{}
	var nested = map[int32]uint64{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindTrapEnter:
			open[e.Task] = e
			nested[e.Task] = 0
		case trace.KindTrapExit:
			enter, ok := open[e.Task]
			if !ok {
				return fmt.Errorf("trace: trap exit without enter for task %d at cycle %d (%s)",
					e.Task, e.Cycle, site(e.PC))
			}
			delete(open, e.Task)
			delta := e.Cycle - enter.Cycle
			sub := nested[e.Task]
			if sub > delta {
				return fmt.Errorf("trace: nested charges %d exceed trap window %d (task %d, cycle %d, %s)",
					sub, delta, e.Task, e.Cycle, site(enter.PC))
			}
			class := e.Arg & 15
			window[class] += delta - sub
			if sites[class] == nil {
				sites[class] = map[uint32]uint64{}
			}
			sites[class][enter.PC] += delta - sub
		case trace.KindReloc, trace.KindRelease, trace.KindSwitch:
			// A service that relocates, compacts, or schedules mid-trap books
			// those cycles on the nested event, not on the service.
			for task := range open {
				nested[task] += e.Arg2
			}
		case trace.KindIdle:
			for task := range open {
				nested[task] += e.Arg
			}
		}
	}
	for class := 1; class < 16; class++ {
		if got, want := window[class], stats.ServiceCycles[class]; got != want {
			hotPC, hot := uint32(0), uint64(0)
			for pc, c := range sites[class] {
				if c > hot || (c == hot && pc < hotPC) {
					hotPC, hot = pc, c
				}
			}
			return fmt.Errorf("trace: class %v trap windows sum to %d cycles, ledger charged %d (hottest trap site: %s, %d cycles)",
				rewriter.Class(class), got, want, site(hotPC), hot)
		}
	}
	return nil
}
