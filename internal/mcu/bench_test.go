package mcu

import (
	"testing"

	"repro/internal/avr/asm"
)

// benchMachine assembles src, loads it at 0, and points SP at top of SRAM.
func benchMachine(b *testing.B, src string) *Machine {
	b.Helper()
	p, err := asm.Assemble(b.Name(), src)
	if err != nil {
		b.Fatal(err)
	}
	m := New()
	if err := m.LoadFlash(0, p.Words); err != nil {
		b.Fatal(err)
	}
	m.SetSP(0x10FF)
	return m
}

// hotLoopSrc is an infinite all-ALU loop: no I/O, no device events, no traps.
// It isolates the cost of the run loop itself (uop fetch, dispatch, horizon
// check) from device and kernel overhead.
const hotLoopSrc = `
main:
    ldi r16, 1
    ldi r17, 3
loop:
    add r18, r16
    adc r19, r17
    eor r20, r18
    lsr r21
    dec r22
    mov r23, r20
    subi r24, 1
    rjmp loop
`

// dispatchSrc cycles through a wide spread of dispatch families (ALU, skip,
// branch, stack, flash read, I/O) so the dispatch path sees a realistic
// opcode mix rather than one predictable target.
const dispatchSrc = `
main:
    ldi r30, lo8(tbl)
    ldi r31, hi8(tbl)
    lsl r30
loop:
    add r18, r16
    sbrs r18, 0
    inc r19
    push r18
    pop r20
    lpm r21, Z
    in r22, PINB
    out PORTB, r22
    cpi r18, 0
    brne loop
    rjmp loop
tbl:
    .dw 0x1234
`

// reportMIPS attaches simulated instructions per host-second to the
// benchmark output.
func reportMIPS(b *testing.B, m *Machine, start uint64) {
	b.ReportMetric(float64(m.Instructions()-start)/b.Elapsed().Seconds()/1e6, "MIPS")
}

// BenchmarkStep measures the fully-checked per-instruction path (the one
// stepwise mode, tracing, and profiling use).
func BenchmarkStep(b *testing.B) {
	m := benchMachine(b, hotLoopSrc)
	start := m.Instructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	reportMIPS(b, m, start)
}

// BenchmarkRunTranslatedLoop measures the hot ALU loop with basic-block
// translation at threshold 1: the loop body executes as one fused
// superinstruction per iteration, with SREG in a local, folded dead flags,
// and one horizon check per block. BenchmarkStep is its checked-path
// counterpart.
func BenchmarkRunTranslatedLoop(b *testing.B) {
	m := benchMachine(b, hotLoopSrc)
	m.SetTranslation(1)
	start := m.Instructions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunUntil(m.Cycles() + 1000); err != nil {
			b.Fatal(err)
		}
	}
	reportMIPS(b, m, start)
	st := m.TranslationStats()
	if st.FusedDispatches == 0 {
		b.Fatal("no fused blocks dispatched")
	}
	b.ReportMetric(float64(st.FusedInsts)/float64(m.Instructions()-start), "fused-frac")
}
