package mcu

import (
	"testing"
)

// reRun clears the BREAK fault and restarts the loaded program from pc=0
// without clearing the micro-op cache, so a stale cache entry would be
// re-executed as-is.
func reRun(t *testing.T, m *Machine) {
	t.Helper()
	m.fault = nil
	m.SetPC(0)
	m.SetSP(0x10FF)
	runUntilBreak(t, m, 100_000)
}

// TestLoadFlashInvalidatesSecondWord pins the micro-op invalidation rule for
// two-word instructions: patching only the SECOND word of a cached LDS, STS,
// or CALL must rebuild the entry whose first word sits at base-1. Without the
// base-1 invalidation in LoadFlash the predecoded operand would survive the
// patch and the old address would be used.
func TestLoadFlashInvalidatesSecondWord(t *testing.T) {
	t.Run("lds", func(t *testing.T) {
		m := load(t, `
main:
    lds r16, 0x0200
    break
`)
		m.Poke(0x0200, 11)
		m.Poke(0x0204, 22)
		m.SetSP(0x10FF)
		runUntilBreak(t, m, 100_000)
		if got := m.Reg(16); got != 11 {
			t.Fatalf("first run: r16 = %d, want 11", got)
		}
		// Patch only the operand word (flash word 1) to point at 0x0204.
		if err := m.LoadFlash(1, []uint16{0x0204}); err != nil {
			t.Fatal(err)
		}
		reRun(t, m)
		if got := m.Reg(16); got != 22 {
			t.Fatalf("after second-word patch: r16 = %d, want 22 (stale uop operand)", got)
		}
	})

	t.Run("sts", func(t *testing.T) {
		m := load(t, `
main:
    ldi r16, 77
    sts 0x0200, r16
    break
`)
		m.SetSP(0x10FF)
		runUntilBreak(t, m, 100_000)
		if got := m.Peek(0x0200); got != 77 {
			t.Fatalf("first run: [0x0200] = %d, want 77", got)
		}
		// ldi is one word, so the STS operand is flash word 2.
		if err := m.LoadFlash(2, []uint16{0x0204}); err != nil {
			t.Fatal(err)
		}
		reRun(t, m)
		if got := m.Peek(0x0204); got != 77 {
			t.Fatalf("after second-word patch: [0x0204] = %d, want 77 (stale uop operand)", got)
		}
	})

	t.Run("lds across pages", func(t *testing.T) {
		// The LDS opcode is the last word of page 0 and its operand the
		// first word of page 1; the patch writes page 1 only.
		m := load(t, `
main:
    jmp far
.org 0xFF
far:
    lds r16, 0x0200
    break
`)
		m.Poke(0x0200, 11)
		m.Poke(0x0204, 22)
		m.SetSP(0x10FF)
		runUntilBreak(t, m, 100_000)
		if got := m.Reg(16); got != 11 {
			t.Fatalf("first run: r16 = %d, want 11", got)
		}
		if err := m.LoadFlash(pageWords, []uint16{0x0204}); err != nil {
			t.Fatal(err)
		}
		reRun(t, m)
		if got := m.Reg(16); got != 22 {
			t.Fatalf("after second-page patch: r16 = %d, want 22 (stale uop operand)", got)
		}
	})

	t.Run("call", func(t *testing.T) {
		m := load(t, `
main:
    call f1
    break
f1:
    ldi r20, 1
    ret
f2:
    ldi r20, 2
    ret
`)
		m.SetSP(0x10FF)
		runUntilBreak(t, m, 100_000)
		if got := m.Reg(20); got != 1 {
			t.Fatalf("first run: r20 = %d, want 1", got)
		}
		// Layout: call = words 0-1, break = 2, f1 = 3-4, f2 = 5-6. Patch the
		// CALL target word to f2.
		if err := m.LoadFlash(1, []uint16{5}); err != nil {
			t.Fatal(err)
		}
		reRun(t, m)
		if got := m.Reg(20); got != 2 {
			t.Fatalf("after second-word patch: r20 = %d, want 2 (stale uop target)", got)
		}
	})
}

// identitySrc mixes the hot native ops of the benchmark suite (ALU, skips,
// short branches, I/O polling) with memory, stack, and flash-read traffic so
// the fast run loop and the fully-checked Step path both cover every dispatch
// family.
const identitySrc = `
main:
    ldi r16, lo8(0x10FF)
    out SPL, r16
    ldi r16, hi8(0x10FF)
    out SPH, r16
    ldi r24, 200
    clr r20
    clr r21
outer:
    mov r18, r24
    lsr r18
    add r20, r18
    adc r21, r1
    eor r18, r20
    push r18
    pop r19
    call leaf
    sbrs r24, 0
    inc r22
    dec r24
    brne outer
    sts 0x0200, r20
    sts 0x0201, r21
    ldi r30, lo8(table)
    ldi r31, hi8(table)
    lsl r30
    lpm r23, Z
wait:
    in r17, UCSR0A
    sbrs r17, 5
    rjmp wait
    out UDR0, r20
    break
leaf:
    subi r20, 1
    sbci r21, 0
    ret
table:
    .dw 0x4241
`

// TestFastStepwiseIdentity runs the same program through the default
// two-tier run and through per-instruction Step and requires bit-identical
// architectural state: cycles, retired instructions, PC, SP, SREG, and all of
// data memory.
func TestFastStepwiseIdentity(t *testing.T) {
	run := func(stepwise bool) *Machine {
		m := load(t, identitySrc)
		m.SetStepwise(stepwise)
		runUntilBreak(t, m, 1_000_000)
		return m
	}
	fast, slow := run(false), run(true)
	if fast.Cycles() != slow.Cycles() {
		t.Errorf("cycles: fast %d, stepwise %d", fast.Cycles(), slow.Cycles())
	}
	if fast.Instructions() != slow.Instructions() {
		t.Errorf("instructions: fast %d, stepwise %d", fast.Instructions(), slow.Instructions())
	}
	if fast.PC() != slow.PC() {
		t.Errorf("pc: fast %#x, stepwise %#x", fast.PC(), slow.PC())
	}
	if fast.SP() != slow.SP() {
		t.Errorf("sp: fast %#x, stepwise %#x", fast.SP(), slow.SP())
	}
	if fast.SREG() != slow.SREG() {
		t.Errorf("sreg: fast %08b, stepwise %08b", fast.SREG(), slow.SREG())
	}
	if fast.data != slow.data {
		for i := range fast.data {
			if fast.data[i] != slow.data[i] {
				t.Errorf("data[%#04x]: fast %#02x, stepwise %#02x", i, fast.data[i], slow.data[i])
			}
		}
	}
}

// TestRunStopsAtDeviceHorizon checks that the fused tier never runs past a
// pending device event: an ADC conversion started inside the horizon must
// complete at exactly the documented latency even though no per-instruction
// device check happens inside a block.
func TestRunStopsAtDeviceHorizon(t *testing.T) {
	m := load(t, `
main:
    ldi r16, 0b11000000   ; ADEN|ADSC
    out ADCSRA, r16
poll:
    in r17, ADCSRA
    sbrc r17, 6           ; ADSC still set -> conversion running
    rjmp poll
    break
`)
	m.SetADCSource(func(uint8) uint16 { return 0x123 })
	m.SetSP(0x10FF)
	runUntilBreak(t, m, 100_000)
	if m.Cycles() < ADCCycles {
		t.Fatalf("conversion finished after %d cycles, want >= %d", m.Cycles(), ADCCycles)
	}
	if got := uint16(m.Peek(IOBase+0x04)) | uint16(m.Peek(IOBase+0x05))<<8; got != 0x123 {
		t.Fatalf("ADC result = %#x, want 0x123", got)
	}
}
