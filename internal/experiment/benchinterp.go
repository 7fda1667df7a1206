package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// InterpBenchPoint is one kernel benchmark timed under the two interpreter
// modes: the checked stepwise loop (every instruction goes through Step with
// its per-instruction device/pending/fault checks) and the two-tier loop that
// `Run` uses by default, where hot basic blocks execute as fused
// superinstructions and Step takes the rest.
type InterpBenchPoint struct {
	Benchmark string `json:"benchmark"`
	Cycles    uint64 `json:"simulated_cycles"`
	// Instructions is the retired-instruction count, identical across modes.
	Instructions uint64 `json:"instructions"`
	// The wall times cover the kernel run alone: machine construction,
	// program rewrite, task admission, and boot happen before the timer
	// starts, because their cost is dominated by host allocation — noisy
	// enough (most of a millisecond either way on a busy allocator) to
	// swamp the sub-1% armed-overhead deltas gated below.
	CheckedMs float64 `json:"checked_ms"`
	FusedMs   float64 `json:"fused_ms"`
	// CheckedMIPS and FusedMIPS are host millions of instructions per second
	// under each mode.
	CheckedMIPS float64 `json:"checked_mips"`
	FusedMIPS   float64 `json:"fused_mips"`
	// BlocksBuilt / BlockInvalidations / FusedFrac come from the fused run's
	// translation stats: how many basic blocks were translated, how many were
	// killed by flash writes, and what fraction of retired instructions
	// executed inside fused superinstructions.
	BlocksBuilt        uint64  `json:"blocks_built"`
	BlockInvalidations uint64  `json:"block_invalidations"`
	FusedFrac          float64 `json:"fused_frac"`
	// TelemetryArmedMs times the default (translated) loop with a telemetry
	// sampler attached whose interval exceeds the run length, so it never
	// fires: the delta against FusedMs isolates what an armed hook that
	// never comes due costs (its cycle joins the one due compare the run
	// loop makes anyway).
	TelemetryArmedMs float64 `json:"telemetry_armed_ms"`
	// EnergyArmedMs times the default loop with an energy meter attached: the
	// meter's hooks live at device transition points and the sleep path, none
	// of them on the per-instruction or fused paths, so the delta against
	// FusedMs bounds what merely attaching a meter costs.
	EnergyArmedMs float64 `json:"energy_armed_ms"`
	// CyclesIdentical confirms the fused tier is an optimization, not a
	// different simulation: every mode must retire the same instructions and
	// simulate the same cycles.
	CyclesIdentical bool `json:"cycles_identical"`
}

// InterpBench is the BENCH_interp.json payload.
type InterpBench struct {
	BenchMeta
	Reps int    `json:"reps"`
	Note string `json:"note"`
	// SerialFastMs / SerialFastMIPS aggregate the whole suite run
	// back-to-back on one goroutine in the default configuration (fused
	// blocks at FusedThreshold). The JSON names predate translation; they
	// now measure whatever `Run` does by default.
	SerialFastMs   float64 `json:"serial_fast_ms"`
	SerialFastMIPS float64 `json:"serial_fast_mips"`
	// ParallelFastMs / ParallelFastMIPS run the same suite under the
	// experiment worker pool (one machine per point, runPoints order).
	ParallelWorkers  int     `json:"parallel_workers"`
	ParallelFastMs   float64 `json:"parallel_fast_ms"`
	ParallelFastMIPS float64 `json:"parallel_fast_mips"`
	// FusedThreshold is the block-translation landing threshold the fused
	// passes ran at (the mcu default).
	FusedThreshold int `json:"fused_threshold"`
	// TotalSuiteSpeedup is sum(checked_ms)/sum(fused_ms): the end-to-end
	// gain of the default interpreter configuration over the checked loop,
	// dominated by the long benchmarks and host-relative, so stable enough
	// to gate on.
	TotalSuiteSpeedup float64 `json:"total_suite_speedup"`
	// TelemetryOverheadPct is the armed-telemetry vs disabled default-loop
	// wall-clock delta, as a percentage of the fused suite floor. The sampler
	// never fires during the armed runs, so this bounds what merely attaching
	// telemetry costs; the interp gate requires it to stay under 1%. Each
	// benchmark contributes its smallest same-rep armed-minus-fused delta
	// (clamped at zero): adjacent passes share host state, so the paired
	// delta cancels the slow drift that independent best-of-reps minima
	// cannot, and host noise only ever adds time, so one quiet rep bounds
	// the real overhead from above.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
	// EnergyOverheadPct is the same paired armed-vs-disabled estimate for an
	// attached energy meter, gated under 1% like telemetry.
	EnergyOverheadPct  float64            `json:"energy_overhead_pct"`
	AllCyclesIdentical bool               `json:"all_cycles_identical"`
	Benchmarks         []InterpBenchPoint `json:"benchmarks"`
}

const interpBenchLimit = 4_000_000_000

// mips converts an instruction count and a wall time in milliseconds to
// host millions of instructions per second.
func mips(insts uint64, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(insts) / (ms * 1000)
}

// BenchInterp times the seven kernel benchmarks under the checked stepwise
// interpreter and the default two-tier loop (fused basic blocks at the mcu
// default landing threshold, Step for the rest), then re-times the default
// suite serially and under the parallel pool. It backs `make bench-interp`
// and BENCH_interp.json.
func BenchInterp(reps, workers int) (*InterpBench, error) {
	if reps <= 0 {
		reps = 3
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &InterpBench{
		BenchMeta: NewBenchMeta("interp", "kernel7"),
		Reps:      reps,
		Note: "checked mode forces the per-instruction Step path (stepwise), which already uses the " +
			"predecoded micro-op cache; fused mode is the default configuration, with hot basic " +
			"blocks translated into superinstructions and Step running the rest. " +
			"total_suite_speedup is the checked/fused ratio; see EXPERIMENTS.md",
		ParallelWorkers:    workers,
		FusedThreshold:     mcu.DefaultTranslationThreshold,
		AllCyclesIdentical: true,
	}
	benchmarks := progs.KernelBenchmarks()
	// Suite sums of the per-benchmark paired armed-vs-fused deltas (see the
	// rep loop below); the overhead percentages divide them by the fused
	// suite floor.
	telDeltaSum, energyDeltaSum := 0.0, 0.0
	// The overhead gates compare wall times that differ by well under a
	// millisecond, so a collector cycle landing inside one timed pass but not
	// its counterpart reads as overhead (worst on single-CPU hosts, where the
	// collector shares the measuring core). Disable automatic GC for the
	// measured phase and collect manually between passes: each pass allocates
	// a few MB (machine + predecoded micro-ops), so the heap stays bounded.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, kb := range benchmarks {
		p := InterpBenchPoint{Benchmark: kb.Name}

		// One timed pass: build and boot everything first, then time the
		// kernel run alone. Setup (machine construction, program rewrite,
		// task admission, boot) is dominated by host allocation, whose cost
		// swings by most of a millisecond with allocator state — enough to
		// swamp the sub-1% deltas the armed gates measure — so it stays
		// outside the timed window. The collection before the timer starts
		// for the same reason: a GC pause landing inside one pass but not
		// its counterpart reads as overhead (worst on single-CPU hosts,
		// where the collector shares the measuring core).
		runPass := func(stepwise bool, cfg kernel.Config) (*mcu.Machine, float64, error) {
			m := mcu.New()
			m.SetStepwise(stepwise)
			k, err := bootSenSmart(m, cfg, kb.Program.Clone())
			if err != nil {
				return nil, 0, err
			}
			runtime.GC()
			start := time.Now()
			err = k.Run(interpBenchLimit)
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			if err != nil {
				return nil, 0, err
			}
			if !k.Done() {
				return nil, 0, fmt.Errorf("%d-cycle limit hit before completion", interpBenchLimit)
			}
			return m, ms, nil
		}

		var checkedM, fusedM *mcu.Machine
		for i := 0; i < reps; i++ {
			m, ms, err := runPass(true, kernel.Config{})
			if err != nil {
				return nil, fmt.Errorf("%s checked: %w", kb.Name, err)
			}
			if i == 0 || ms < p.CheckedMs {
				p.CheckedMs = ms
			}
			checkedM = m
			p.Cycles = m.Cycles()
		}
		// Default-mode, armed-telemetry, and armed-energy passes interleave
		// rep by rep: the armed passes differ from the default one by an
		// armed hook that never fires (or a meter fed per device
		// transition), so any measured gap beyond noise is real, and
		// interleaving keeps slow host drift (thermal, cgroup throttling)
		// from biasing one side. The armed overhead estimates pair each
		// armed time against the fused time of the same rep — adjacent
		// passes share host state, so the paired delta cancels drift the
		// independent best-of-reps minima can't — and keep the smallest
		// delta across reps: noise only ever adds time, so any single quiet
		// rep bounds the real overhead from above.
		var fusedCycles, armedCycles, energyCycles uint64
		telDelta, energyDelta := 0.0, 0.0
		for i := 0; i < reps; i++ {
			m, fusedRepMs, err := runPass(false, kernel.Config{})
			if err != nil {
				return nil, fmt.Errorf("%s fused: %w", kb.Name, err)
			}
			if i == 0 || fusedRepMs < p.FusedMs {
				p.FusedMs = fusedRepMs
			}
			fusedM, fusedCycles = m, m.Cycles()

			samp := telemetry.New(telemetry.Options{Every: interpBenchLimit, Ring: 8})
			m, ms, err := runPass(false, kernel.Config{Telemetry: samp})
			if err != nil {
				return nil, fmt.Errorf("%s telemetry-armed: %w", kb.Name, err)
			}
			if i == 0 || ms < p.TelemetryArmedMs {
				p.TelemetryArmedMs = ms
			}
			if d := ms - fusedRepMs; i == 0 || d < telDelta {
				telDelta = d
			}
			armedCycles = m.Cycles()

			m, ms, err = runPass(false, kernel.Config{Energy: new(energy.Meter)})
			if err != nil {
				return nil, fmt.Errorf("%s energy-armed: %w", kb.Name, err)
			}
			if i == 0 || ms < p.EnergyArmedMs {
				p.EnergyArmedMs = ms
			}
			if d := ms - fusedRepMs; i == 0 || d < energyDelta {
				energyDelta = d
			}
			energyCycles = m.Cycles()
		}
		// Clamp at zero per benchmark: real overhead cannot be negative, and
		// letting a lucky negative delta on one benchmark offset a real cost
		// on another would hide regressions.
		telDeltaSum += max(telDelta, 0)
		energyDeltaSum += max(energyDelta, 0)
		p.Instructions = fusedM.Instructions()
		p.CheckedMIPS = mips(checkedM.Instructions(), p.CheckedMs)
		p.FusedMIPS = mips(p.Instructions, p.FusedMs)
		st := fusedM.TranslationStats()
		p.BlocksBuilt = st.Built
		p.BlockInvalidations = st.Invalidations
		if n := fusedM.Instructions(); n > 0 {
			p.FusedFrac = float64(st.FusedInsts) / float64(n)
		}
		p.CyclesIdentical = p.Cycles == fusedCycles &&
			p.Cycles == armedCycles && p.Cycles == energyCycles &&
			checkedM.Instructions() == fusedM.Instructions()
		if !p.CyclesIdentical {
			return nil, fmt.Errorf("%s: the fused tier perturbed the simulation (%d vs %d vs %d vs %d cycles, %d vs %d insts)",
				kb.Name, p.Cycles, fusedCycles, armedCycles, energyCycles,
				checkedM.Instructions(), fusedM.Instructions())
		}
		b.Benchmarks = append(b.Benchmarks, p)
	}

	// Whole-suite default-mode wall time: serial, then under the worker pool.
	var totalInsts uint64
	var checkedMs, fusedMs float64
	for _, p := range b.Benchmarks {
		totalInsts += p.Instructions
		checkedMs += p.CheckedMs
		fusedMs += p.FusedMs
	}
	if fusedMs > 0 {
		b.TotalSuiteSpeedup = checkedMs / fusedMs
		b.TelemetryOverheadPct = 100 * telDeltaSum / fusedMs
		b.EnergyOverheadPct = 100 * energyDeltaSum / fusedMs
	}
	runPoint := func(i int) (uint64, error) {
		m := mcu.New()
		run, err := runSenSmartOn(m, kernel.Config{}, interpBenchLimit, benchmarks[i].Program.Clone())
		if err != nil {
			return 0, err
		}
		return run.Cycles, nil
	}
	serialBest, parallelBest := 0.0, 0.0
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		if _, err := runPoints(1, len(benchmarks), runPoint); err != nil {
			return nil, fmt.Errorf("serial suite: %w", err)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if i == 0 || ms < serialBest {
			serialBest = ms
		}
		runtime.GC()
		start = time.Now()
		if _, err := runPoints(workers, len(benchmarks), runPoint); err != nil {
			return nil, fmt.Errorf("parallel suite: %w", err)
		}
		ms = float64(time.Since(start)) / float64(time.Millisecond)
		if i == 0 || ms < parallelBest {
			parallelBest = ms
		}
	}
	b.SerialFastMs = serialBest
	b.SerialFastMIPS = mips(totalInsts, serialBest)
	b.ParallelFastMs = parallelBest
	b.ParallelFastMIPS = mips(totalInsts, parallelBest)
	return b, nil
}

// CheckInterpBaseline gates a fresh InterpBench against a committed
// baseline. Absolute MIPS figures vary with the host, so the primary gate is
// the host-relative suite-aggregate checked/fused floor; the serial MIPS is
// only required to stay inside a wide tolerance band around the baseline,
// catching order-of-magnitude regressions without flaking on hardware
// differences.
func CheckInterpBaseline(cur, base *InterpBench, minTotal, tolerancePct float64) error {
	if !cur.AllCyclesIdentical {
		return fmt.Errorf("interp gate: cycle counts diverged between interpreter modes")
	}
	if cur.TotalSuiteSpeedup < minTotal {
		return fmt.Errorf("interp gate: suite checked/fused speedup %.2fx below required %.2fx",
			cur.TotalSuiteSpeedup, minTotal)
	}
	if cur.TelemetryOverheadPct >= 1.0 {
		return fmt.Errorf("interp gate: armed-telemetry overhead %.2f%% at or above the 1%% budget",
			cur.TelemetryOverheadPct)
	}
	// Gate on cur only: baselines written before the energy meter existed
	// have no energy_overhead_pct field and must keep passing.
	if cur.EnergyOverheadPct >= 1.0 {
		return fmt.Errorf("interp gate: armed-energy overhead %.2f%% at or above the 1%% budget",
			cur.EnergyOverheadPct)
	}
	floor := base.SerialFastMIPS * (1 - tolerancePct/100)
	if cur.SerialFastMIPS < floor {
		return fmt.Errorf("interp gate: serial default-mode throughput %.1f MIPS below baseline %.1f MIPS - %.0f%% = %.1f MIPS",
			cur.SerialFastMIPS, base.SerialFastMIPS, tolerancePct, floor)
	}
	return nil
}
