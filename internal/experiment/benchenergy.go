package experiment

import (
	"fmt"

	"repro/internal/baseline/fixedstack"
	"repro/internal/baseline/mate"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// EnergyBenchPoint is one kernel benchmark run to completion under SenSmart
// with an energy meter attached: the full per-device joules breakdown of the
// run. Every field is an integer derived from the deterministic cycle
// ledgers, so the point is byte-identical at any worker count.
type EnergyBenchPoint struct {
	Benchmark string `json:"benchmark"`
	Cycles    uint64 `json:"cycles"`
	energy.Breakdown
}

// EnergyBaselineRow is the PeriodicTask workload costed on the joules axis
// under one execution system. PJPerActivation is the comparison metric: total
// energy divided by the number of periodic activations completed.
type EnergyBaselineRow struct {
	Baseline        string `json:"baseline"`
	Cycles          uint64 `json:"cycles"`
	IdleCycles      uint64 `json:"idle_cycles"`
	Activations     int    `json:"activations"`
	TotalPJ         uint64 `json:"total_pj"`
	PJPerActivation uint64 `json:"pj_per_activation"`
}

// EnergyBench is the BENCH_energy.json payload: the seven kernel benchmarks
// on the joules axis, plus the PeriodicTask baseline comparison across
// native, SenSmart, fixed-stack, t-kernel (steady state), and the Maté-style
// VM.
type EnergyBench struct {
	BenchMeta
	Activations int                 `json:"activations"`
	Benchmarks  []EnergyBenchPoint  `json:"benchmarks"`
	Baselines   []EnergyBaselineRow `json:"baselines"`
	// OrderingOK asserts the expected baseline ordering: Maté interpretation
	// costs the most joules per activation, and the t-kernel's lighter
	// protection the fewest among the protected systems at steady state.
	OrderingOK bool `json:"ordering_ok"`
}

// energyBaselineSize is the PeriodicTask computation size the baseline rows
// share (mid-range of the Figure 6 sweep's linear region).
const energyBaselineSize = 30_000

const energyBenchLimit = 30_000_000_000

// BenchEnergy reruns the seven kernel benchmarks under SenSmart with an
// energy meter attached, then costs the PeriodicTask workload under every
// baseline system on the same joules axis. All accounting is integer math on
// deterministic cycle ledgers: the output is byte-identical between serial
// and parallel runs.
func (r Runner) BenchEnergy(activations int) (*EnergyBench, error) {
	if activations <= 0 {
		activations = 40
	}
	out := &EnergyBench{
		BenchMeta:   NewBenchMeta("energy", "kernel7 + periodic baselines"),
		Activations: activations,
	}

	kbs := progs.KernelBenchmarks()
	points, err := runPoints(r.workers(), len(kbs), runProgress(r, "energy/kernel7", len(kbs),
		func(p EnergyBenchPoint) uint64 { return p.Cycles },
		func(i int) (EnergyBenchPoint, error) {
			meter := new(energy.Meter)
			sys, err := runSenSmart(kernel.Config{Energy: meter}, energyBenchLimit, kbs[i].Program.Clone())
			if err != nil {
				return EnergyBenchPoint{}, fmt.Errorf("%s: %w", kbs[i].Name, err)
			}
			cycles := sys.Machine().Cycles()
			return EnergyBenchPoint{
				Benchmark: kbs[i].Name,
				Cycles:    cycles,
				Breakdown: meter.Report(cycles),
			}, nil
		}))
	if err != nil {
		return nil, err
	}
	out.Benchmarks = points

	baselines := []string{"native", "sensmart", "fixed-stack", "t-kernel", "mate"}
	rows, err := runPoints(r.workers(), len(baselines), runProgress(r, "energy/baselines", len(baselines),
		func(row EnergyBaselineRow) uint64 { return row.Cycles },
		func(i int) (EnergyBaselineRow, error) {
			return energyBaselineRow(baselines[i], activations)
		}))
	if err != nil {
		return nil, err
	}
	out.Baselines = rows

	byName := make(map[string]EnergyBaselineRow, len(rows))
	for _, row := range rows {
		byName[row.Baseline] = row
	}
	mateRow := byName["mate"]
	out.OrderingOK = true
	for _, row := range rows {
		if row.Baseline != "mate" && row.PJPerActivation >= mateRow.PJPerActivation {
			out.OrderingOK = false
		}
	}
	tk := byName["t-kernel"]
	for _, name := range []string{"sensmart", "fixed-stack"} {
		if byName[name].PJPerActivation <= tk.PJPerActivation {
			out.OrderingOK = false
		}
	}
	if !out.OrderingOK {
		return out, fmt.Errorf("energy: baseline ordering unexpected (want mate max, t-kernel min among protected)")
	}
	return out, nil
}

// energyBaselineRow costs the PeriodicTask workload under one system.
func energyBaselineRow(name string, activations int) (EnergyBaselineRow, error) {
	row := EnergyBaselineRow{Baseline: name, Activations: activations}
	params := progs.PeriodicParams{Instructions: energyBaselineSize, Activations: activations}
	meter := new(energy.Meter)
	// The native, fixed-stack and t-kernel runs use this metered machine;
	// the SenSmart run brings its own.
	m := mcu.New()
	m.SetEnergyMeter(meter)

	switch name {
	case "native":
		if _, err := progs.RunNativeOn(m, progs.PeriodicTaskNative(params), energyBenchLimit); err != nil {
			return row, err
		}
	case "sensmart":
		sys, err := runSenSmart(kernel.Config{Energy: meter}, energyBenchLimit, progs.PeriodicTask(params))
		if err != nil {
			return row, err
		}
		m = sys.Machine()
	case "fixed-stack":
		sys := fixedstack.New(m, fixedstack.Config{WorstCaseStack: 224})
		nat, err := rewriter.Rewrite(progs.PeriodicTask(params), rewriter.Config{})
		if err != nil {
			return row, err
		}
		if _, err := sys.AddTask("periodic", nat); err != nil {
			return row, err
		}
		if err := sys.K.Boot(); err != nil {
			return row, err
		}
		if err := sys.K.Run(energyBenchLimit); err != nil {
			return row, err
		}
		if !sys.K.Done() {
			return row, fmt.Errorf("energy: fixed-stack periodic run hit the cycle limit")
		}
	case "t-kernel":
		// Steady state: the ~1 s on-node rewriting warm-up is excluded, as
		// in Figure 5.
		if err := runTKernel(m, progs.PeriodicTaskNative(params), false, energyBenchLimit); err != nil {
			return row, err
		}
	case "mate":
		// The Maté VM is not an mcu.Machine, so its ledger is costed
		// arithmetically from the same coefficients: interpreted cycles at
		// the active draw, sleep ticks at the sleep draw, radio bytes at the
		// transmit draw over their fixed busy window.
		code, err := mate.PeriodicProgram(energyBaselineSize, activations, params.PeriodTicks)
		if err != nil {
			return row, err
		}
		vm := mate.New(code)
		if err := vm.Run(0); err != nil {
			return row, err
		}
		row.Cycles, row.IdleCycles = vm.Cycles, vm.IdleCycles
		active := vm.Cycles - vm.IdleCycles
		row.TotalPJ = active*energy.CPUActivePJ + vm.IdleCycles*energy.CPUSleepPJ +
			uint64(vm.RadioBytes)*mcu.RadioByteCycles*energy.RadioTxPJ
		row.PJPerActivation = row.TotalPJ / uint64(activations)
		return row, nil
	default:
		return row, fmt.Errorf("energy: unknown baseline %q", name)
	}

	row.Cycles, row.IdleCycles = m.Cycles(), m.IdleCycles()
	row.TotalPJ = meter.Report(row.Cycles).TotalPJ
	row.PJPerActivation = row.TotalPJ / uint64(activations)
	return row, nil
}

// EnergyTable renders the benchmark points and baseline rows for the CLI.
func EnergyTable(b *EnergyBench) *Table {
	t := &Table{
		ID:     "energy",
		Title:  "Energy: kernel benchmarks and PeriodicTask baselines (picojoules)",
		Header: []string{"benchmark", "cycles", "total", "cpu-active", "cpu-sleep", "radio", "uart", "adc", "timer"},
	}
	for _, p := range b.Benchmarks {
		t.Rows = append(t.Rows, []string{
			p.Benchmark, fmt.Sprintf("%d", p.Cycles),
			energy.FormatPJ(p.TotalPJ), energy.FormatPJ(p.CPUActivePJ), energy.FormatPJ(p.CPUSleepPJ),
			energy.FormatPJ(p.RadioPJ), energy.FormatPJ(p.UARTPJ), energy.FormatPJ(p.ADCPJ),
			energy.FormatPJ(p.TimerPJ),
		})
	}
	for _, row := range b.Baselines {
		t.Rows = append(t.Rows, []string{
			"periodic/" + row.Baseline, fmt.Sprintf("%d", row.Cycles),
			energy.FormatPJ(row.TotalPJ),
			fmt.Sprintf("%d act", row.Activations),
			energy.FormatPJ(row.PJPerActivation) + "/act",
			"", "", "", "",
		})
	}
	verdict := "expected (mate max, t-kernel min among protected)"
	if !b.OrderingOK {
		verdict = "UNEXPECTED"
	}
	t.Notes = append(t.Notes, "baseline ordering: "+verdict)
	return t
}
