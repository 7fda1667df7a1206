package experiment

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// Every kernel benchmark's final telemetry snapshot must reconcile exactly,
// field for field, with the kernel's Metrics aggregation — the sampler reads
// the same cycle ledgers, so any divergence means the snapshot logic drifted.
func TestTelemetryFinalSnapshotAllBenchmarks(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		kb := kb
		t.Run(kb.Name, func(t *testing.T) {
			smp := telemetry.New(telemetry.Options{Every: 200_000})
			sys, err := runSenSmart(kernel.Config{Telemetry: smp}, 4_000_000_000, kb.Program.Clone())
			if err != nil {
				t.Fatal(err)
			}
			s, ok := sys.Kernel().SampleTelemetryNow()
			if !ok {
				t.Fatal("SampleTelemetryNow returned false with a sampler attached")
			}
			m := sys.Metrics()
			if s.Cycle != m.TotalCycles || s.IdleCycles != m.IdleCycles ||
				s.KernelCycles() != m.KernelCycles || s.AppCycles() != m.AppCycles ||
				s.ServiceOverheadCycles != m.ServiceOverheadCycles ||
				s.SwitchCycles != m.SwitchCycles || s.RelocCycles != m.RelocCycles ||
				s.BootCycles != m.BootCycles {
				t.Fatalf("cycle split diverged from Metrics: sample %+v", s)
			}
			if s.ContextSwitches != m.ContextSwitches || s.Preemptions != m.Preemptions ||
				s.BranchTraps != m.BranchTraps || s.SliceChecks != m.SliceChecks ||
				s.Relocations != m.Relocations || s.Terminations != m.Terminations {
				t.Fatal("counters diverged from Metrics")
			}
			if len(s.Tasks) != len(m.Tasks) {
				t.Fatalf("%d task samples vs %d task metrics", len(s.Tasks), len(m.Tasks))
			}
			for i, ts := range s.Tasks {
				tm := m.Tasks[i]
				if int(ts.ID) != tm.ID || ts.Name != tm.Name || ts.State != tm.State ||
					ts.RunCycles != tm.RunCycles || ts.KernelCycles != tm.KernelCycles ||
					ts.StackAlloc != tm.StackAlloc || ts.Traps != tm.Traps ||
					ts.Relocations != tm.Relocations || ts.Switches != tm.Switches {
					t.Fatalf("task %d diverged: sample %+v vs metrics %+v", i, ts, tm)
				}
			}
		})
	}
}

// sampleBenchmark runs one benchmark with a streaming sampler and returns
// the live NDJSON stream plus the ring-dump exports.
func sampleBenchmark(t *testing.T, kb progs.KernelBenchmark) (stream, dump, series []byte) {
	t.Helper()
	var buf bytes.Buffer
	smp := telemetry.New(telemetry.Options{Every: 100_000, Stream: &buf})
	if _, err := runSenSmart(kernel.Config{Telemetry: smp}, 4_000_000_000, kb.Program.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := smp.StreamErr(); err != nil {
		t.Fatal(err)
	}
	var dumpBuf, seriesBuf bytes.Buffer
	if err := smp.WriteNDJSON(&dumpBuf); err != nil {
		t.Fatal(err)
	}
	if err := smp.WriteJSON(&seriesBuf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), dumpBuf.Bytes(), seriesBuf.Bytes()
}

// The simulated clock drives sampling, so telemetry exports are
// deterministic: repeated serial runs and parallel-pool runs of the same
// benchmarks must produce byte-identical NDJSON and JSON series.
func TestTelemetryExportsDeterministic(t *testing.T) {
	benches := progs.KernelBenchmarks()

	type export struct{ stream, dump, series []byte }
	collect := func(workers int) []export {
		out, err := runPoints(workers, len(benches), func(i int) (export, error) {
			s, d, j := sampleBenchmark(t, benches[i])
			return export{s, d, j}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	serial := collect(1)
	repeat := collect(1)
	pooled := collect(4)
	for i, kb := range benches {
		for _, other := range []struct {
			mode string
			got  export
		}{{"repeated serial", repeat[i]}, {"parallel pool", pooled[i]}} {
			if !bytes.Equal(serial[i].stream, other.got.stream) {
				t.Fatalf("%s: %s run streamed different NDJSON bytes", kb.Name, other.mode)
			}
			if !bytes.Equal(serial[i].dump, other.got.dump) {
				t.Fatalf("%s: %s run dumped different NDJSON bytes", kb.Name, other.mode)
			}
			if !bytes.Equal(serial[i].series, other.got.series) {
				t.Fatalf("%s: %s run exported a different JSON series", kb.Name, other.mode)
			}
		}
		if len(serial[i].stream) == 0 {
			t.Fatalf("%s: no samples streamed", kb.Name)
		}
		// Nothing wrapped at this ring size, so the live stream and the ring
		// dump must agree exactly.
		if !bytes.Equal(serial[i].stream, serial[i].dump) {
			t.Fatalf("%s: live stream and ring dump disagree", kb.Name)
		}
	}
}

// Runner.Progress must observe every sweep point exactly once, in sweep
// order after the ordered merge, regardless of worker count.
func TestRunnerProgressReportsEveryPoint(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var lines []string
		prog := telemetry.NewProgress(func(line string) {
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
		})
		r := Runner{Concurrency: workers, Progress: prog}
		tbl, err := r.Figure5()
		if err != nil {
			t.Fatal(err)
		}
		pts := prog.Points()
		if len(pts) != len(tbl.Rows) {
			t.Fatalf("workers=%d: %d progress points for %d sweep rows", workers, len(pts), len(tbl.Rows))
		}
		if len(lines) != len(pts) {
			t.Fatalf("workers=%d: %d sink lines for %d points", workers, len(lines), len(pts))
		}
		seen := map[int]bool{}
		for _, p := range pts {
			if p.Sweep != "fig5" || p.Total != len(tbl.Rows) {
				t.Fatalf("workers=%d: unexpected point %+v", workers, p)
			}
			if seen[p.Index] {
				t.Fatalf("workers=%d: point %d reported twice", workers, p.Index)
			}
			seen[p.Index] = true
		}
	}
}
