package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// hotspotPoint is one benchmark's profiled run.
type hotspotPoint struct {
	name string
	prof *profile.Profiler
	top  []profile.TopEntry
}

// verifyProfileLedger cross-checks a profiled run against the kernel's
// always-on cycle ledgers: the profiler must attribute exactly the cycles the
// machine executed, per task and per service class. This is the same
// invariant TestProfilerMatchesKernelLedger pins, enforced on every -exp
// hotspots run so a drifting hook can't quietly produce a plausible table.
func verifyProfileLedger(prof *profile.Profiler, sys *core.System) error {
	if got, want := prof.TotalCycles(), sys.Machine().Cycles(); got != want {
		return fmt.Errorf("profiler attributed %d cycles, machine ran %d", got, want)
	}
	m := sys.Metrics()
	for _, tm := range m.Tasks {
		if got, want := prof.TaskTotal(int32(tm.ID)), tm.RunCycles; got != want {
			return fmt.Errorf("task %s profiled at %d cycles, ledger says %d", tm.Name, got, want)
		}
	}
	var svc uint64
	for class := rewriter.Class(1); class < 16; class++ {
		if got, want := prof.ServiceOverhead(class), sys.Kernel().Stats.ServiceOverhead[class]; got != want {
			return fmt.Errorf("kernel.%v frames total %d cycles, ledger charged %d", class, got, want)
		}
		svc += prof.ServiceOverhead(class)
	}
	if svc != m.ServiceOverheadCycles {
		return fmt.Errorf("kernel service frames sum to %d, ServiceOverheadCycles is %d",
			svc, m.ServiceOverheadCycles)
	}
	return nil
}

// ProfileRun boots one profiled SenSmart node with one task per program,
// runs it to completion (hitting limit first is an error), reconciles the
// profiler against the kernel cycle ledger, and returns the profiler — one
// Hotspots point, and the backing for the -profile/-folded exports of
// sensmart-bench.
func ProfileRun(limit uint64, programs ...*image.Program) (*profile.Profiler, error) {
	prof := profile.New(profile.Options{})
	sys, err := runSenSmart(kernel.Config{Profile: prof}, limit, programs...)
	if err != nil {
		return nil, err
	}
	if err := verifyProfileLedger(prof, sys); err != nil {
		return nil, err
	}
	return prof, nil
}

// Hotspots profiles each of the seven kernel benchmarks with the cycle-exact
// symbol profiler and reports the topK hottest frames per benchmark —
// application symbols and synthetic kernel frames side by side, so the table
// shows at a glance whether a workload is app-bound or trap-bound. Every run
// is reconciled against the kernel cycle ledger before its rows are emitted.
func (r Runner) Hotspots(topK int) (*Table, error) {
	if topK <= 0 {
		topK = 5
	}
	benches := progs.KernelBenchmarks()
	points, err := runPoints(r.workers(), len(benches), runProgress(r, "hotspots", len(benches),
		func(p hotspotPoint) uint64 { return p.prof.TotalCycles() },
		func(i int) (hotspotPoint, error) {
			prof, err := ProfileRun(4_000_000_000, benches[i].Program.Clone())
			if err != nil {
				return hotspotPoint{}, fmt.Errorf("%s: %w", benches[i].Name, err)
			}
			return hotspotPoint{name: benches[i].Name, prof: prof, top: prof.Top(topK)}, nil
		}))
	if err != nil {
		return nil, err
	}

	tbl := &Table{
		ID:     "hotspots",
		Title:  fmt.Sprintf("Top %d frames per kernel benchmark (cycle-exact profiler)", topK),
		Header: []string{"benchmark", "rank", "frame", "cycles", "share"},
	}
	for _, p := range points {
		for rank, e := range p.top {
			tbl.Rows = append(tbl.Rows, []string{
				p.name,
				itoa(rank + 1),
				e.Frame,
				utoa(e.Cycles),
				fmt.Sprintf("%.1f%%", e.Percent),
			})
		}
	}
	tbl.Notes = append(tbl.Notes,
		"frames: image.symbol = application code, kernel.<service> = Table II trap overhead, kernel.boot/switch/reloc/compact and idle = global kernel phases",
		"every run's per-task and per-class totals were reconciled exactly against the kernel cycle ledger")
	return tbl, nil
}
