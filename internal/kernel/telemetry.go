package kernel

import (
	"repro/internal/energy"
	"repro/internal/rewriter"
	"repro/internal/telemetry"
)

// telemetrySample is the machine's sampling hook: it snapshots the kernel
// ledgers into one telemetry.Sample. Unlike Metrics it must not mutate
// kernel state (no accrueRun) — a sample fires mid-run, and sampled runs
// must stay cycle- and trace-identical to unsampled ones — so the running
// task's open window and live SP are folded in read-only.
func (k *Kernel) telemetrySample(at uint64) {
	k.Cfg.Telemetry.Record(k.buildTelemetrySample(at))
}

// buildTelemetrySample assembles the snapshot for the nominal boundary
// cycle at. Its aggregation mirrors Metrics exactly — same service-overhead
// sum, same kernel/app split, same per-task accessors — so the final
// sample reconciles field-for-field with the Metrics the harnesses report
// (asserted on every kernel benchmark by the experiment suite).
func (k *Kernel) buildTelemetrySample(at uint64) telemetry.Sample {
	m := k.M
	now := m.Cycles()
	s := &k.Stats
	smp := telemetry.Sample{
		At:              at,
		Cycle:           now,
		IdleCycles:      m.IdleCycles(),
		SwitchCycles:    s.SwitchCycles,
		RelocCycles:     s.RelocCycles,
		BootCycles:      s.BootCycles,
		ContextSwitches: s.ContextSwitches,
		Preemptions:     s.Preemptions,
		SliceChecks:     s.SliceChecks,
		BranchTraps:     s.BranchTraps,
		Relocations:     s.Relocations,
		RelocatedBytes:  s.RelocatedBytes,
		Terminations:    s.Terminations,
		Running:         -1,
	}
	for class := rewriter.Class(1); class < numClasses; class++ {
		smp.ServiceOverheadCycles += s.ServiceOverhead[class]
	}
	cur := k.Current()
	if cur != nil {
		smp.Running = int32(cur.ID)
	}
	metered := k.Cfg.Energy != nil
	if metered {
		// Report is read-only, so sampling keeps the no-mutation contract.
		b := k.Cfg.Energy.Report(now)
		smp.EnergyPJ = b.TotalPJ
		smp.EnergyCPUActivePJ = b.CPUActivePJ
		smp.EnergyCPUSleepPJ = b.CPUSleepPJ
		smp.EnergyRadioPJ = b.RadioPJ
		smp.EnergyUARTPJ = b.UARTPJ
		smp.EnergyADCPJ = b.ADCPJ
		smp.EnergyTimerPJ = b.TimerPJ
	}
	for _, t := range k.regions {
		smp.HeapBytes += uint32(t.HeapSize())
		smp.StackBytes += uint32(t.StackAlloc())
	}
	smp.FreeBytes = uint32(k.FreeMemory())
	smp.Tasks = make([]telemetry.TaskSample, 0, len(k.Tasks))
	for _, t := range k.Tasks {
		ts := telemetry.TaskSample{
			ID:           int32(t.ID),
			Name:         t.Name,
			State:        t.state.String(),
			RunCycles:    t.runCycles,
			KernelCycles: t.KernelCycles,
			StackUsed:    t.StackUsed(),
			StackPeak:    t.MaxStackUsed,
			StackAlloc:   t.StackAlloc(),
			HeapBytes:    t.HeapSize(),
			Relocations:  t.Relocations,
			Switches:     t.Switches,
		}
		if t == cur {
			// The running task's ledgers lag the machine: its run window is
			// open and its saved SP is stale, so read both live.
			if now > t.runStart {
				ts.RunCycles += now - t.runStart
			}
			ts.StackUsed = t.region.StackUsed(m.SP())
			if ts.StackUsed > ts.StackPeak {
				ts.StackPeak = ts.StackUsed
			}
		}
		for class := rewriter.Class(1); class < numClasses; class++ {
			ts.Traps += t.ServiceCalls[class]
		}
		if metered {
			ts.EnergyPJ = energy.CPUPJ(ts.RunCycles)
		}
		smp.Tasks = append(smp.Tasks, ts)
	}
	return smp
}

// SampleTelemetryNow records one sample stamped at the current cycle —
// the final reconciled snapshot a harness takes after Run returns, so the
// stream's last line and a /metrics scrape between runs reflect the same
// totals Metrics reports. It returns false when no sampler is attached.
func (k *Kernel) SampleTelemetryNow() (telemetry.Sample, bool) {
	if k.Cfg.Telemetry == nil {
		return telemetry.Sample{}, false
	}
	smp := k.buildTelemetrySample(k.M.Cycles())
	k.Cfg.Telemetry.Record(smp)
	return smp, true
}
