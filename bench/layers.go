package main

import (
	"time"

	"repro/internal/baseline/tkernel"
	"repro/internal/kernel"
	"repro/internal/mcu"
)

// counters are the per-layer counts read from public simulator state after
// each call, in the traced run only.
type counters struct {
	insts, fusedInsts, blocksBuilt uint64
	kernelTraps, tkernelTraps      uint64
	switches, preemptions          int
	relocations, admitRejects      int
	relocatedBytes                 uint64
	seeks, ringHits                int
	replayCycles                   uint64
	saves, snapshotBytes           int
	trials, forensics, contained   int
}

// countMachine adds a finished machine's instruction and block counters.
func (t *tracer) countMachine(m *mcu.Machine) {
	if !t.record {
		return
	}
	xs := m.TranslationStats()
	t.c.insts += m.Instructions()
	t.c.fusedInsts += xs.FusedInsts
	t.c.blocksBuilt += xs.Built
}

// countKernel adds a finished kernel's trap, scheduling and relocation
// counters.
func (t *tracer) countKernel(k *kernel.Kernel) {
	if !t.record {
		return
	}
	for _, n := range k.Stats.ServiceCalls {
		t.c.kernelTraps += n
	}
	t.c.switches += k.Stats.ContextSwitches
	t.c.preemptions += k.Stats.Preemptions
	t.c.relocations += k.Stats.Relocations
	t.c.relocatedBytes += k.Stats.RelocatedBytes
}

// countTKernel adds a finished t-kernel runtime's service count.
func (t *tracer) countTKernel(rt *tkernel.Runtime) {
	if !t.record {
		return
	}
	for _, n := range rt.ServiceCalls {
		t.c.tkernelTraps += n
	}
}

// layerSpans are the spans the benchmark opens around its calls into the
// simulator's layers, in pipeline order: build, load, run, then the
// observers, then the benchmark's own output checks.
var layerSpans = []string{
	"asm", "rewriter", "tkernel.naturalize", "core.build",
	"mcu.new", "kernel.new", "mcu.load", "tkernel.load", "kernel.add_task", "kernel.boot",
	"mcu.run", "kernel.run", "tkernel.run",
	"faultinject.run", "timetravel.seek",
	"snapshot.capture", "snapshot.encode", "snapshot.decode",
	"bench.check",
}

// metric is one named, unit-carrying number of the benchmark's output.
type metric struct {
	name  string
	value float64
	unit  string
}

// runtimeUse is the Go runtime's cost over one measured window.
type runtimeUse struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	peakRSSMB  float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced window into the per-layer metrics: every
// layer's self time per job, then the counters, normalized per job (or per
// seek, per save, per trial) so runs of different job counts compare. Times
// here are unscaled; bench.host_factor is the scale the end-to-end timings
// get.
func layerMetrics(spans []span, c counters, jobs int, rt runtimeUse, coverage, overhead, hostFactor float64) []metric {
	n := float64(jobs)
	self := selfTimes(spans)
	calls := make(map[string]int)
	var runTime time.Duration
	for _, s := range spans {
		calls[s.name]++
		switch s.name {
		case "mcu.run", "kernel.run", "tkernel.run":
			runTime += s.end - s.start
		}
	}
	var out []metric
	for _, name := range layerSpans {
		out = append(out, metric{name + ".self_ms", ms(self[name]) / n, "ms/job"})
	}
	seekMs := durationsMs(spans, "timetravel.seek")
	return append(out,
		metric{"mcu.new.calls", float64(calls["mcu.new"]) / n, "count/job"},
		metric{"rewriter.calls", float64(calls["rewriter"]) / n, "count/job"},
		metric{"mcu.run_mips", ratio(float64(c.insts), runTime.Seconds()) / 1e6, "MIPS"},
		metric{"mcu.fused_frac", ratio(float64(c.fusedInsts), float64(c.insts)), "ratio"},
		metric{"mcu.blocks_built", float64(c.blocksBuilt) / n, "count/job"},
		metric{"kernel.traps", float64(c.kernelTraps) / n, "count/job"},
		metric{"tkernel.traps", float64(c.tkernelTraps) / n, "count/job"},
		metric{"kernel.switches", float64(c.switches) / n, "count/job"},
		metric{"kernel.preemptions", float64(c.preemptions) / n, "count/job"},
		metric{"kernel.relocations", float64(c.relocations) / n, "count/job"},
		metric{"kernel.relocated_bytes", float64(c.relocatedBytes) / n, "B/job"},
		metric{"kernel.admit_rejects", float64(c.admitRejects) / n, "count/job"},
		metric{"timetravel.replay_mcycles", ratio(float64(c.replayCycles), float64(c.seeks)) / 1e6, "Mcycles/seek"},
		metric{"timetravel.ring_hit_frac", ratio(float64(c.ringHits), float64(c.seeks)), "ratio"},
		metric{"timetravel.seek_ms.p99", percentile(seekMs, 0.99), "ms"},
		metric{"snapshot.bytes", ratio(float64(c.snapshotBytes), float64(c.saves)), "B/save"},
		metric{"faultinject.trials", float64(c.trials) / n, "count/job"},
		metric{"faultinject.forensics", float64(c.forensics) / n, "count/job"},
		metric{"faultinject.contained_frac", ratio(float64(c.contained), float64(c.trials)), "ratio"},
		metric{"runtime.gc_cycles", float64(rt.gcCycles) / n, "count/job"},
		metric{"runtime.gc_pause_ms", ms(rt.gcPause) / n, "ms/job"},
		metric{"runtime.peak_rss_mb", rt.peakRSSMB, "MB"},
		metric{"bench.coverage_frac", coverage, "ratio"},
		metric{"bench.trace_overhead_frac", overhead, "ratio"},
		metric{"bench.host_factor", hostFactor, "ratio"},
	)
}
