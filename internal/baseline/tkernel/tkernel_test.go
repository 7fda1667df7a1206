package tkernel

import (
	"bytes"
	"testing"

	"repro/internal/mcu"
	"repro/internal/minic"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

func TestTKernelRunsKernelBenchmarksCorrectly(t *testing.T) {
	// Cross-validate against the native run: the t-kernel-naturalized
	// program must compute the same results.
	prog := progs.LFSR(2000)
	native, err := progs.RunNative(prog.Clone(), 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	wantOut, _ := progs.HeapWord(native.Machine, prog, "out")

	img, err := Naturalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := mcu.New()
	rt, err := NewRuntime(m, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if !rt.Exited() {
		t.Fatal("did not exit")
	}
	sym, _ := img.Nat.Program.Lookup("out")
	got := uint16(m.Peek(uint16(sym.Addr))) | uint16(m.Peek(uint16(sym.Addr)+1))<<8
	if got != wantOut {
		t.Errorf("t-kernel lfsr result = %#x, native %#x", got, wantOut)
	}
	// Steady-state overhead exists but is moderate.
	if m.Cycles() <= native.Cycles {
		t.Errorf("t-kernel (%d cycles) should be slower than native (%d)", m.Cycles(), native.Cycles)
	}
	if m.Cycles() > native.Cycles*4 {
		t.Errorf("t-kernel overhead too high: %d vs native %d", m.Cycles(), native.Cycles)
	}
}

func TestTKernelInflationExceedsSenSmart(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		sens, err := rewriter.Rewrite(kb.Program, rewriter.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := Naturalize(kb.Program)
		if err != nil {
			t.Fatal(err)
		}
		if tk.CodeBytes() <= sens.Program.SizeBytes() {
			t.Errorf("%s: t-kernel %d bytes should exceed SenSmart %d",
				kb.Name, tk.CodeBytes(), sens.Program.SizeBytes())
		}
	}
}

func TestTKernelWarmupAboutOneSecond(t *testing.T) {
	prog := progs.PeriodicTaskNative(progs.PeriodicParams{Instructions: 10_000, Activations: 1})
	img, err := Naturalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	warm := img.WarmupCycles()
	// The paper reports "about one second"; accept 0.8..1.5 s.
	if warm < 6_000_000 || warm > 11_000_000 {
		t.Errorf("warmup = %d cycles (%.2f s), want ~1 s", warm, float64(warm)/mcu.ClockHz)
	}
}

func TestTKernelPeriodicWithSleep(t *testing.T) {
	p := progs.PeriodicParams{Instructions: 10_000, Activations: 5, PeriodTicks: 4096}
	prog := progs.PeriodicTaskNative(p)
	img, err := Naturalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := mcu.New()
	rt, err := NewRuntime(m, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if !rt.Exited() {
		t.Fatal("periodic task did not finish")
	}
	sym, _ := img.Nat.Program.Lookup("done")
	done := uint16(m.Peek(uint16(sym.Addr))) | uint16(m.Peek(uint16(sym.Addr)+1))<<8
	if done != 5 {
		t.Errorf("done = %d, want 5", done)
	}
	if m.IdleCycles() == 0 {
		t.Error("sleep should idle the CPU under t-kernel")
	}
}

func TestTKernelAllBenchmarksRun(t *testing.T) {
	// Exercise every service class of the t-kernel trap handler: the seven
	// kernel benchmarks cover icall/ijmp (eventchain), lpm, SP access,
	// direct and indirect memory, branches, calls and sleep. Each runs on
	// the default tiers and stepwise, which must agree on every count the
	// runtime keeps: the default run fast-forwards the benchmarks' poll
	// loops, booking their branch services through the repeater.
	for _, kb := range progs.KernelBenchmarks() {
		kb := kb
		t.Run(kb.Name, func(t *testing.T) {
			img, err := Naturalize(kb.Program)
			if err != nil {
				t.Fatal(err)
			}
			run := func(stepwise bool) (*mcu.Machine, *Runtime) {
				m := mcu.New()
				m.SetStepwise(stepwise)
				rt, err := NewRuntime(m, img)
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.Run(10_000_000_000); err != nil {
					t.Fatal(err)
				}
				if !rt.Exited() {
					t.Fatal("benchmark did not exit")
				}
				return m, rt
			}
			m, rt := run(false)
			var calls uint64
			for _, n := range rt.ServiceCalls {
				calls += n
			}
			if calls == 0 {
				t.Error("no service calls recorded")
			}
			// Every benchmark ends by polling UART UDRE in putc.
			if st := m.TranslationStats(); st.SpinInsts == 0 {
				t.Errorf("no poll iteration fast-forwarded: %+v", st)
			}
			sm, srt := run(true)
			if m.Cycles() != sm.Cycles() || m.Instructions() != sm.Instructions() ||
				m.IdleCycles() != sm.IdleCycles() {
				t.Errorf("cycles/instructions/idle %d/%d/%d, stepwise %d/%d/%d",
					m.Cycles(), m.Instructions(), m.IdleCycles(),
					sm.Cycles(), sm.Instructions(), sm.IdleCycles())
			}
			if rt.ServiceCalls != srt.ServiceCalls {
				t.Errorf("service calls %v, stepwise %v", rt.ServiceCalls, srt.ServiceCalls)
			}
			if !bytes.Equal(m.UARTOutput(), sm.UARTOutput()) {
				t.Errorf("UART %q, stepwise %q", m.UARTOutput(), sm.UARTOutput())
			}
			if rt.Exited() != srt.Exited() {
				t.Errorf("exited %v, stepwise %v", rt.Exited(), srt.Exited())
			}
		})
	}
}

func TestTKernelFrameProgram(t *testing.T) {
	// avr-gcc style frames exercise the SP read/write services.
	prog, err := minic.Compile("frames", `
int out;
int helper(int a, int b) {
    int t;
    t = a * b;
    return t + 1;
}
void main() {
    out = helper(6, 7);
    exit();
}
`)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Naturalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	m := mcu.New()
	rt, err := NewRuntime(m, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !rt.Exited() {
		t.Fatal("did not exit")
	}
	sym, _ := img.Nat.Program.Lookup("g_out")
	got := uint16(m.Peek(uint16(sym.Addr))) | uint16(m.Peek(uint16(sym.Addr)+1))<<8
	if got != 43 {
		t.Errorf("out = %d, want 43", got)
	}
	if rt.ServiceCalls[rewriter.ClassSPWrite] == 0 || rt.ServiceCalls[rewriter.ClassSPRead] == 0 {
		t.Error("SP services unused; frame setup did not go through the t-kernel")
	}
}
