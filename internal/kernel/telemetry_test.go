package kernel

import (
	"reflect"
	"testing"

	"repro/internal/rewriter"
	"repro/internal/telemetry"
)

// bootSampled boots two preempting spin tasks with a sampler attached.
func bootSampled(t *testing.T, every uint64, opts telemetry.Options) (*Kernel, *telemetry.Sampler) {
	t.Helper()
	opts.Every = every
	smp := telemetry.New(opts)
	cfg := Config{SliceCycles: 10_000, Telemetry: smp}
	k, _ := bootKernel(t, cfg,
		naturalize(t, "spinA", spinSrc),
		naturalize(t, "spinB", spinSrc))
	return k, smp
}

func TestTelemetrySamplesDuringRun(t *testing.T) {
	k, smp := bootSampled(t, 50_000, telemetry.Options{})
	if err := k.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	samples := smp.Samples()
	if len(samples) < 10 {
		t.Fatalf("only %d samples over 2M cycles at 50k interval", len(samples))
	}
	var prevAt, prevCycle uint64
	for i, s := range samples {
		if s.At%50_000 != 0 {
			t.Fatalf("sample %d At=%d is not an interval boundary", i, s.At)
		}
		if s.Cycle < s.At {
			t.Fatalf("sample %d taken at cycle %d before its boundary %d", i, s.Cycle, s.At)
		}
		if i > 0 && (s.At <= prevAt || s.Cycle < prevCycle) {
			t.Fatalf("samples not monotonic: At %d->%d Cycle %d->%d", prevAt, s.At, prevCycle, s.Cycle)
		}
		prevAt, prevCycle = s.At, s.Cycle
		if len(s.Tasks) != 2 {
			t.Fatalf("sample %d carries %d tasks, want 2", i, len(s.Tasks))
		}
		if s.Running < 0 {
			t.Fatalf("sample %d has no running task in a busy workload", i)
		}
		if ledger := s.ServiceOverheadCycles + s.SwitchCycles + s.RelocCycles + s.BootCycles; ledger != s.KernelCycles() {
			t.Fatalf("sample %d kernel-cycle sum mismatch", i)
		}
		if s.Cycle > 0 && s.AppCycles()+s.KernelCycles()+s.IdleCycles > s.Cycle {
			t.Fatalf("sample %d cycle split exceeds the clock", i)
		}
	}
	// Task names were registered at admission (bootKernel suffixes A/B).
	if smp.TaskName(0) != "spinAA" || smp.TaskName(1) != "spinBB" {
		t.Fatalf("task names = %q, %q", smp.TaskName(0), smp.TaskName(1))
	}
}

// The final snapshot must reconcile field-for-field with Metrics — the
// sampler reads the same ledgers the aggregation does.
func TestTelemetryFinalSnapshotMatchesMetrics(t *testing.T) {
	k, _ := bootSampled(t, 50_000, telemetry.Options{})
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	smp, ok := k.SampleTelemetryNow()
	if !ok {
		t.Fatal("SampleTelemetryNow with an attached sampler returned false")
	}
	m := k.Metrics()
	if smp.Cycle != m.TotalCycles || smp.IdleCycles != m.IdleCycles ||
		smp.KernelCycles() != m.KernelCycles || smp.AppCycles() != m.AppCycles ||
		smp.ServiceOverheadCycles != m.ServiceOverheadCycles {
		t.Fatalf("kernel split diverged: sample %+v vs metrics %+v", smp, m)
	}
	if smp.ContextSwitches != m.ContextSwitches || smp.Preemptions != m.Preemptions ||
		smp.BranchTraps != m.BranchTraps || smp.SliceChecks != m.SliceChecks ||
		smp.Relocations != m.Relocations || smp.Terminations != m.Terminations {
		t.Fatal("counters diverged from Metrics")
	}
	if len(smp.Tasks) != len(m.Tasks) {
		t.Fatalf("%d task samples vs %d task metrics", len(smp.Tasks), len(m.Tasks))
	}
	for i, ts := range smp.Tasks {
		tm := m.Tasks[i]
		if int(ts.ID) != tm.ID || ts.Name != tm.Name || ts.State != tm.State ||
			ts.RunCycles != tm.RunCycles || ts.KernelCycles != tm.KernelCycles ||
			ts.StackAlloc != tm.StackAlloc || ts.Relocations != tm.Relocations ||
			ts.Traps != tm.Traps || ts.Switches != tm.Switches {
			t.Fatalf("task %d diverged: sample %+v vs metrics %+v", i, ts, tm)
		}
		if ts.StackPeak < tm.StackPeak {
			t.Fatalf("task %d sample peak %d below metrics peak %d", i, ts.StackPeak, tm.StackPeak)
		}
	}
}

// A sampled run must be cycle-identical to an unsampled one: the hook reads
// state but never perturbs execution.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	run := func(sampled bool) (*Kernel, uint64) {
		cfg := Config{SliceCycles: 10_000}
		if sampled {
			cfg.Telemetry = telemetry.New(telemetry.Options{Every: 10_000})
		}
		k, _ := bootKernel(t, cfg,
			naturalize(t, "spinA", spinSrc),
			naturalize(t, "recurse", recurseSrc))
		if err := k.Run(1_500_000); err != nil {
			t.Fatal(err)
		}
		return k, k.M.Cycles()
	}
	plainK, plainCycles := run(false)
	sampledK, sampledCycles := run(true)
	if plainCycles != sampledCycles {
		t.Fatalf("sampling perturbed the clock: %d vs %d", plainCycles, sampledCycles)
	}
	pm, sm := plainK.Metrics(), sampledK.Metrics()
	if pm.KernelCycles != sm.KernelCycles || pm.BranchTraps != sm.BranchTraps ||
		pm.ContextSwitches != sm.ContextSwitches || pm.IdleCycles != sm.IdleCycles {
		t.Fatal("sampling perturbed kernel accounting")
	}
}

// Stack gauges: the recursive benchmark's sampled SP depth must move, stay
// within the task's peak and its allocation, and be the same whichever tier
// runs. The running task's depth comes from the live hardware SP, not the
// stale saved context: a wrapper around the kernel's sampling hook records
// the live SP at every firing. The ledger's high-water mark is updated only
// at kernel entry, so a sample may sit above it.
func TestTelemetryStackGauges(t *testing.T) {
	run := func(stepwise bool) ([]telemetry.Sample, []uint16) {
		smp := telemetry.New(telemetry.Options{Every: 2_000})
		cfg := Config{SliceCycles: 10_000, Telemetry: smp}
		k, tasks := bootKernel(t, cfg, naturalize(t, "recurse", recurseSrc))
		k.M.SetStepwise(stepwise)
		var live []uint16
		k.M.SetSampler(2_000, func(at uint64) {
			_, _, pu := tasks[0].Region()
			used := uint16(0)
			if sp := k.M.SP(); sp < pu {
				used = pu - 1 - sp
			}
			live = append(live, used)
			k.telemetrySample(at)
		})
		if err := k.Run(3_000_000); err != nil {
			t.Fatal(err)
		}
		return smp.Samples(), live
	}
	samples, live := run(false)
	var maxSeen uint16
	depths := make(map[uint16]bool)
	for i, s := range samples {
		ts := s.Tasks[0]
		if ts.StackUsed > ts.StackPeak {
			t.Fatalf("live depth %d above reported peak %d", ts.StackUsed, ts.StackPeak)
		}
		if ts.StackUsed > ts.StackAlloc {
			t.Fatalf("sampled depth %d exceeds the %d-byte stack allocation", ts.StackUsed, ts.StackAlloc)
		}
		if ts.StackUsed != live[i] {
			t.Fatalf("sample %d reports depth %d, the live SP says %d", i, ts.StackUsed, live[i])
		}
		if ts.StackUsed > maxSeen {
			maxSeen = ts.StackUsed
		}
		depths[ts.StackUsed] = true
	}
	if len(depths) < 3 {
		t.Fatalf("sampled SP depth never moved: %v", depths)
	}
	if maxSeen == 0 {
		t.Fatal("no sample caught the stack in use")
	}
	if want, _ := run(true); !reflect.DeepEqual(samples, want) {
		t.Fatalf("default run's %d samples differ from the stepwise run's %d", len(samples), len(want))
	}
}

func TestSampleTelemetryNowWithoutSampler(t *testing.T) {
	k, _ := bootKernel(t, Config{}, naturalize(t, "sum", sumSrc))
	if _, ok := k.SampleTelemetryNow(); ok {
		t.Fatal("SampleTelemetryNow without a sampler returned true")
	}
}

// Tasks spawned at runtime (the dynamic-reprogramming path) register with
// the sampler too, and show up in subsequent samples.
func TestTelemetryRuntimeSpawn(t *testing.T) {
	smp := telemetry.New(telemetry.Options{Every: 20_000})
	cfg := Config{SliceCycles: 10_000, Telemetry: smp}
	k, _ := bootKernel(t, cfg, naturalize(t, "spinA", spinSrc))
	if err := k.Run(200_000); err != nil {
		t.Fatal(err)
	}
	var nat *rewriter.Naturalized = naturalize(t, "spinB", spinSrc)
	if _, err := k.SpawnTask("late", nat); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(600_000); err != nil {
		t.Fatal(err)
	}
	if smp.TaskName(1) != "late" {
		t.Fatalf("spawned task not registered: %q", smp.TaskName(1))
	}
	last, ok := smp.Last()
	if !ok || len(last.Tasks) != 2 {
		t.Fatalf("last sample carries %d tasks, want 2", len(last.Tasks))
	}
}
