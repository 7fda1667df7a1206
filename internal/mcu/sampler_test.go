package mcu

import (
	"slices"
	"testing"

	"repro/internal/avr/asm"
)

func samplerMachine(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.LoadFlash(0, p.Words); err != nil {
		t.Fatal(err)
	}
	m.SetSP(0x10FF)
	return m
}

// trapLoopSrc is an ALU loop punctuated by a KTRAP, like kernel-rewritten
// code: the fused tier chains blocks across the traps.
const trapLoopSrc = `
main:
    ldi r16, 1
loop:
    add r18, r16
    adc r19, r16
    eor r20, r18
    dec r22
    ktrap 7
    rjmp loop
`

// The sampler fires at the first instruction boundary at or after each
// boundary cycle, whichever tier runs: the default run's (boundary, fire
// cycle) pairs must equal a stepwise run's, each boundary once, stamped
// with its nominal cycle.
func TestSamplerCadence(t *testing.T) {
	type fire struct{ at, cycle uint64 }
	run := func(stepwise bool) []fire {
		m := samplerMachine(t, trapLoopSrc)
		m.SetTrapHandler(func(mm *Machine, id uint16) error {
			mm.SetPC(mm.PC() + 2)
			mm.AddCycles(3)
			return nil
		}, nil)
		m.SetStepwise(stepwise)
		var got []fire
		m.SetSampler(1000, func(at uint64) { got = append(got, fire{at, m.Cycles()}) })
		if err := m.RunUntil(10_500); err != nil {
			t.Fatal(err)
		}
		if st := m.TranslationStats(); !stepwise && st.FusedDispatches == 0 {
			t.Fatalf("default run dispatched no fused blocks: %+v", st)
		}
		return got
	}
	want, got := run(true), run(false)
	if len(want) != 10 {
		t.Fatalf("stepwise run fired %d samples, want 10: %v", len(want), want)
	}
	for i, f := range want {
		if f.at != uint64(i+1)*1000 || f.cycle < f.at {
			t.Fatalf("stepwise sample %d is %+v, want boundary %d fired at or after it", i, f, (i+1)*1000)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("default run fired %v, stepwise %v", got, want)
	}
}

// Stepwise execution checks every instruction, so with a small interval it
// must fire on every boundary in order: 1000, 2000, 3000, ...
func TestSamplerStepwiseHitsEveryBoundary(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	m.SetStepwise(true)
	var got []uint64
	m.SetSampler(1000, func(at uint64) { got = append(got, at) })
	if err := m.RunUntil(5_100); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1000, 2000, 3000, 4000, 5000}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// After a long idle stretch (sleep fast-forwards the clock) only the latest
// crossed boundary fires — no catch-up flood.
func TestSamplerCollapsesAfterSleep(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	var got []uint64
	m.SetSampler(1000, func(at uint64) { got = append(got, at) })
	m.AddIdleCycles(10_400) // clock jumps over ten boundaries at once
	if err := m.RunUntil(10_500); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("sampler never fired")
	}
	if got[0] != 10_000 {
		t.Fatalf("first sample at %d, want the latest crossed boundary 10000 (got %v)", got[0], got)
	}
	if len(got) != 1 {
		t.Fatalf("catch-up flood: %v", got)
	}
}

func TestSamplerDetach(t *testing.T) {
	m := samplerMachine(t, hotLoopSrc)
	fired := 0
	m.SetSampler(1000, func(uint64) { fired++ })
	m.SetSampler(0, nil)
	if err := m.RunUntil(5_000); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("detached sampler fired %d times", fired)
	}
	if m.sampleFn != nil || m.sampleEvery != 0 || m.sampleNext != 0 {
		t.Fatal("detach left sampler state armed")
	}
}

// A sampler must not perturb execution: cycles, instructions, and full
// machine state stay identical with and without one attached.
func TestSamplerDoesNotPerturbExecution(t *testing.T) {
	plain := samplerMachine(t, dispatchSrc)
	sampled := samplerMachine(t, dispatchSrc)
	sampled.SetSampler(512, func(uint64) {})
	const limit = 200_000
	if err := plain.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if err := sampled.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if plain.Cycles() != sampled.Cycles() || plain.Instructions() != sampled.Instructions() {
		t.Fatalf("sampler perturbed execution: %d/%d cycles, %d/%d insts",
			plain.Cycles(), sampled.Cycles(), plain.Instructions(), sampled.Instructions())
	}
	if plain.PC() != sampled.PC() || plain.SP() != sampled.SP() || plain.SREG() != sampled.SREG() {
		t.Fatal("sampler perturbed CPU state")
	}
	for a := 0; a < DataSize; a++ {
		if plain.data[a] != sampled.data[a] {
			t.Fatalf("sampler perturbed data memory at %#x", a)
		}
	}
}
