package experiment

import (
	"bytes"
	"testing"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/progs"
)

// The energy axis must be byte-identical between a serial run and an 8-way
// pool: every joule is integer math on deterministic cycle ledgers, and the
// pool merges points in sweep order.
func TestEnergyBenchDeterministic(t *testing.T) {
	serial, err := Runner{Concurrency: 1}.BenchEnergy(5)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Runner{Concurrency: 8}.BenchEnergy(5)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := MarshalBench(serial)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := MarshalBench(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, pb) {
		t.Fatal("BENCH_energy payload differs between serial and 8-way pooled runs")
	}

	if got := len(serial.Benchmarks); got != len(progs.KernelBenchmarks()) {
		t.Fatalf("energy axis covers %d kernel benchmarks, want %d", got, len(progs.KernelBenchmarks()))
	}
	if got := len(serial.Baselines); got != 5 {
		t.Fatalf("energy axis covers %d baselines, want 5", got)
	}
	if !serial.OrderingOK {
		t.Fatal("baseline ordering verdict failed")
	}
	for _, p := range serial.Benchmarks {
		if p.TotalPJ == 0 || p.CPUActivePJ == 0 {
			t.Errorf("%s: zero joules attributed (total %d, cpu-active %d)", p.Benchmark, p.TotalPJ, p.CPUActivePJ)
		}
		sum := p.CPUActivePJ + p.CPUSleepPJ + p.RadioPJ + p.UARTPJ + p.ADCPJ + p.TimerPJ
		if sum != p.TotalPJ {
			t.Errorf("%s: components sum to %d pJ, total says %d", p.Benchmark, sum, p.TotalPJ)
		}
	}
}

// Attaching the meter must not perturb the simulation: same program, same
// cycle count, with and without metering.
func TestEnergyMeterDoesNotPerturbRun(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		bare, err := runSenSmart(kernel.Config{}, energyBenchLimit, kb.Program.Clone())
		if err != nil {
			t.Fatal(err)
		}
		metered, err := runSenSmart(kernel.Config{Energy: new(energy.Meter)}, energyBenchLimit, kb.Program.Clone())
		if err != nil {
			t.Fatal(err)
		}
		b, m := bare.Machine(), metered.Machine()
		if b.Cycles() != m.Cycles() || b.IdleCycles() != m.IdleCycles() {
			t.Errorf("%s: metered run took %d cycles (%d idle), bare run %d (%d idle)",
				kb.Name, m.Cycles(), m.IdleCycles(), b.Cycles(), b.IdleCycles())
		}
	}
}
