package mcu

import (
	"errors"
	"testing"

	"repro/internal/avr"
	"repro/internal/avr/asm"
)

// load assembles src and loads it at flash address 0.
func load(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	m := New()
	if err := m.LoadFlash(0, p.Words); err != nil {
		t.Fatal(err)
	}
	return m
}

// runUntilBreak steps until the program hits BREAK (the test convention for
// "done") or the cycle limit.
func runUntilBreak(t *testing.T, m *Machine, limit uint64) {
	t.Helper()
	err := m.Run(limit)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultBreak {
		t.Fatalf("expected clean BREAK stop, got %v (pc=%#x)", err, m.PC())
	}
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..10 into r20, store to SRAM 0x0200.
	m := load(t, `
main:
    clr r20
    ldi r16, 10
loop:
    add r20, r16
    dec r16
    brne loop
    sts 0x0200, r20
    break
`)
	runUntilBreak(t, m, 1_000)
	if got := m.Peek(0x0200); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestCallRetAndStack(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(0x10FF)
    out SPL, r16
    ldi r16, hi8(0x10FF)
    out SPH, r16
    ldi r24, 5
    call double
    sts 0x0200, r24
    break
double:
    lsl r24
    ret
`)
	runUntilBreak(t, m, 1_000)
	if got := m.Peek(0x0200); got != 10 {
		t.Errorf("double(5) = %d, want 10", got)
	}
	if sp := m.SP(); sp != 0x10FF {
		t.Errorf("SP = %#x, want 0x10FF (balanced)", sp)
	}
}

func TestPushPopRoundTrip(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(0x10FF)
    out SPL, r16
    ldi r16, hi8(0x10FF)
    out SPH, r16
    ldi r24, 0xAB
    ldi r25, 0xCD
    push r24
    push r25
    pop r0
    pop r1
    break
`)
	runUntilBreak(t, m, 1_000)
	if m.Reg(0) != 0xCD || m.Reg(1) != 0xAB {
		t.Errorf("pop order wrong: r0=%#x r1=%#x", m.Reg(0), m.Reg(1))
	}
}

func TestSregFlagVectors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want byte // expected SREG & (C|Z|N|V|S|H)
	}{
		{"add overflow", `
main:
    ldi r16, 0x80
    ldi r17, 0x80
    add r16, r17
    break
`, flagC | flagZ | flagV | flagS},
		{"add half carry", `
main:
    ldi r16, 0x0F
    ldi r17, 0x01
    add r16, r17
    break
`, flagH},
		{"sub borrow", `
main:
    ldi r16, 0x00
    ldi r17, 0x01
    sub r16, r17
    break
`, flagC | flagN | flagS | flagH},
		{"cp equal", `
main:
    ldi r16, 42
    ldi r17, 42
    cp r16, r17
    break
`, flagZ},
		{"inc to 0x80", `
main:
    ldi r16, 0x7F
    inc r16
    break
`, flagN | flagV},
		{"dec from 0x80", `
main:
    ldi r16, 0x80
    dec r16
    break
`, flagV | flagS},
		{"lsr to zero", `
main:
    ldi r16, 0x01
    lsr r16
    break
`, flagC | flagZ | flagV | flagS},
	}
	const mask = flagC | flagZ | flagN | flagV | flagS | flagH
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := load(t, tt.src)
			runUntilBreak(t, m, 100)
			if got := m.SREG() & mask; got != tt.want {
				t.Errorf("SREG = %08b, want %08b", got, tt.want)
			}
		})
	}
}

func TestCpcSbcZPropagation(t *testing.T) {
	// 16-bit compare of equal values must leave Z set through CPC.
	m := load(t, `
main:
    ldi r24, 0x34
    ldi r25, 0x12
    ldi r26, 0x34
    ldi r27, 0x12
    cp  r24, r26
    cpc r25, r27
    break
`)
	runUntilBreak(t, m, 100)
	if m.SREG()&flagZ == 0 {
		t.Error("16-bit equal compare should leave Z set")
	}
}

func TestAdiwSbiwPair(t *testing.T) {
	m := load(t, `
main:
    ldi r26, 0xFF
    ldi r27, 0x00
    adiw r26, 2
    break
`)
	runUntilBreak(t, m, 100)
	if got := m.RegPair(26); got != 0x0101 {
		t.Errorf("X = %#x, want 0x0101", got)
	}
}

func TestMul(t *testing.T) {
	m := load(t, `
main:
    ldi r16, 200
    ldi r17, 123
    mul r16, r17
    break
`)
	runUntilBreak(t, m, 100)
	got := uint16(m.Reg(0)) | uint16(m.Reg(1))<<8
	if got != 200*123 {
		t.Errorf("mul = %d, want %d", got, 200*123)
	}
}

func TestLpmTable(t *testing.T) {
	m := load(t, `
main:
    ldi r30, lo8(pmbyte(tab))
    ldi r31, hi8(pmbyte(tab))
    lpm r24, Z+
    lpm r25, Z+
    lpm r26, Z
    break
tab:
    .dw 0xBBAA, 0x00CC
`)
	runUntilBreak(t, m, 100)
	if m.Reg(24) != 0xAA || m.Reg(25) != 0xBB || m.Reg(26) != 0xCC {
		t.Errorf("lpm read %#x %#x %#x, want AA BB CC", m.Reg(24), m.Reg(25), m.Reg(26))
	}
}

func TestSkipInstructions(t *testing.T) {
	m := load(t, `
main:
    ldi r16, 0x02
    sbrc r16, 1      ; bit set -> no skip... bit 1 of 0x02 is 1 -> SBRC skips only if clear
    ldi r24, 1       ; executed
    sbrs r16, 1      ; bit set -> skip next
    ldi r24, 99      ; skipped
    ldi r25, 7
    cpse r25, r25    ; equal -> skip next (2-word inst)
    jmp bad
    break
bad:
    ldi r24, 99
    break
`)
	runUntilBreak(t, m, 100)
	if m.Reg(24) != 1 {
		t.Errorf("r24 = %d, want 1 (skips mis-executed)", m.Reg(24))
	}
}

func TestCycleAccounting(t *testing.T) {
	// ldi(1) + nop(1) + rjmp(2) + break(1): total 5 cycles at break.
	m := load(t, `
main:
    ldi r16, 1
    nop
    rjmp next
next:
    break
`)
	runUntilBreak(t, m, 100)
	if got := m.Cycles(); got != 5 {
		t.Errorf("cycles = %d, want 5", got)
	}
}

func TestBranchTakenCostsExtraCycle(t *testing.T) {
	mTaken := load(t, `
main:
    ldi r16, 0
    tst r16
    breq t
t:  break
`)
	runUntilBreak(t, mTaken, 100)
	mNot := load(t, `
main:
    ldi r16, 1
    tst r16
    breq t
t:  break
`)
	runUntilBreak(t, mNot, 100)
	if mTaken.Cycles() != mNot.Cycles()+1 {
		t.Errorf("taken=%d not-taken=%d, want +1", mTaken.Cycles(), mNot.Cycles())
	}
}

func TestTimer0PollingOverflow(t *testing.T) {
	// Start timer0 at clk/8; poll TOV0; count overflows in r20.
	m := load(t, `
main:
    ldi r16, 2        ; clk/8
    out TCCR0, r16
    clr r20
wait:
    in r17, TIFR
    sbrs r17, 0
    rjmp wait
    ldi r17, 1
    out TIFR, r17     ; clear TOV0
    inc r20
    cpi r20, 3
    brne wait
    break
`)
	runUntilBreak(t, m, 100_000)
	if m.Reg(20) != 3 {
		t.Errorf("overflows = %d, want 3", m.Reg(20))
	}
	// Three overflows at 256*8 cycles each.
	if m.Cycles() < 3*256*8 || m.Cycles() > 3*256*8+2048 {
		t.Errorf("cycles = %d, want ~%d", m.Cycles(), 3*256*8)
	}
}

func TestTimer0InterruptWakesSleep(t *testing.T) {
	m := load(t, `
    jmp main
.org 2
    jmp t0_isr        ; timer0 overflow vector
main:
    ldi r16, lo8(RAMEND)
    out SPL, r16
    ldi r16, hi8(RAMEND)
    out SPH, r16
    ldi r16, 1
    out TIMSK, r16    ; enable TOV0 interrupt
    ldi r16, 2        ; clk/8
    out TCCR0, r16
    sei
    clr r20
idle:
    sleep
    cpi r20, 2
    brne idle
    break
t0_isr:
    inc r20
    ldi r17, 1
    out TIFR, r17
    reti
`)
	runUntilBreak(t, m, 100_000)
	if m.Reg(20) != 2 {
		t.Errorf("isr count = %d, want 2", m.Reg(20))
	}
	if m.IdleCycles() == 0 {
		t.Error("sleep should accumulate idle cycles")
	}
	if m.IdleCycles() >= m.Cycles() {
		t.Error("idle cycles must be less than total cycles")
	}
}

func TestADCConversion(t *testing.T) {
	m := load(t, `
main:
    ldi r16, 3
    out ADMUX, r16
    ldi r16, 0xC0     ; ADEN|ADSC
    out ADCSRA, r16
wait:
    in r17, ADCSRA
    sbrc r17, 6       ; ADSC still set -> keep waiting
    rjmp wait
    in r24, ADCL
    in r25, ADCH
    break
`)
	m.SetADCSource(func(ch uint8) uint16 {
		if ch != 3 {
			t.Errorf("channel = %d, want 3", ch)
		}
		return 0x2A5
	})
	runUntilBreak(t, m, 100_000)
	got := uint16(m.Reg(24)) | uint16(m.Reg(25))<<8
	if got != 0x2A5 {
		t.Errorf("adc = %#x, want 0x2A5", got)
	}
	if m.Cycles() < ADCCycles {
		t.Errorf("conversion finished too fast: %d cycles", m.Cycles())
	}
}

func TestUARTTransmit(t *testing.T) {
	m := load(t, `
main:
    ldi r24, 'h'
    rcall putc
    ldi r24, 'i'
    rcall putc
    break
putc:
    in r17, UCSR0A
    sbrs r17, 5       ; UDRE
    rjmp putc
    out UDR0, r24
    ret
`)
	m.SetSP(0x10FF)
	runUntilBreak(t, m, 100_000)
	// Flush: the last byte completes after the program breaks.
	m.fault = nil
	m.AddCycles(UARTByteCycles)
	m.FlushDevices()
	if got := string(m.UARTOutput()); got != "hi" {
		t.Errorf("uart = %q, want %q", got, "hi")
	}
}

func TestRadioTransmitTiming(t *testing.T) {
	m := load(t, `
main:
    ldi r24, 0x55
    rcall txb
    ldi r24, 0xAA
    rcall txb
    break
txb:
    in r17, RSR
    sbrs r17, 0
    rjmp txb
    out RDR, r24
    ret
`)
	m.SetSP(0x10FF)
	runUntilBreak(t, m, 100_000)
	m.fault = nil
	m.AddCycles(RadioByteCycles)
	m.FlushDevices()
	frames := m.RadioOutput()
	if len(frames) != 2 || frames[0].Byte != 0x55 || frames[1].Byte != 0xAA {
		t.Fatalf("radio frames = %+v", frames)
	}
	if frames[1].Cycle-frames[0].Cycle < RadioByteCycles {
		t.Errorf("byte spacing %d < %d", frames[1].Cycle-frames[0].Cycle, RadioByteCycles)
	}
}

func TestRadioReceive(t *testing.T) {
	m := load(t, `
main:
    in r17, RSR
    sbrs r17, 1       ; RX available?
    rjmp main
    in r24, RDR
    break
`)
	m.InjectRadio([]byte{0x7E})
	runUntilBreak(t, m, 10_000)
	if m.Reg(24) != 0x7E {
		t.Errorf("rx byte = %#x, want 0x7E", m.Reg(24))
	}
}

func TestMemoryGuardFaults(t *testing.T) {
	m := load(t, `
main:
    ldi r26, 0x00
    ldi r27, 0x02     ; X = 0x0200, inside guard
    ldi r16, 1
    st X, r16
    ldi r27, 0x08     ; X = 0x0800, outside guard
    st X, r16
    break
`)
	m.SetGuard(0x0180, 0x0400)
	err := m.Run(1_000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultMemGuard {
		t.Fatalf("err = %v, want memory guard fault", err)
	}
	if f.Addr != 0x0800 {
		t.Errorf("fault addr = %#x, want 0x0800", f.Addr)
	}
	if m.Peek(0x0200) != 1 {
		t.Error("in-guard store should have succeeded")
	}
}

func TestStackGuardFaultsOnPush(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(0x0182)
    out SPL, r16
    ldi r16, hi8(0x0182)
    out SPH, r16
    push r0
    push r0
    push r0
    push r0
    break
`)
	m.SetGuard(0x0180, 0x0400)
	err := m.Run(1_000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("err = %v, want stack overflow fault", err)
	}
}

func TestTrapHandlerDispatch(t *testing.T) {
	m := load(t, `
main:
    ktrap 42
    ktrap 1
`)
	var got uint16
	m.SetTrapHandler(func(mm *Machine, id uint16) error {
		if id == 1 {
			mm.Halt("done")
			return nil
		}
		got = id
		mm.SetPC(mm.PC() + 2) // skip the 2-word KTRAP
		return nil
	}, nil)
	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultHalt {
		t.Fatalf("err = %v, want halt", err)
	}
	if got != 42 {
		t.Errorf("trap id = %d, want 42", got)
	}
}

func TestHaltStopsMachine(t *testing.T) {
	m := load(t, `
main:
    rjmp main
`)
	go func() {}() // no concurrency needed; halt before running far
	m.Halt("test stop")
	err := m.Step()
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultHalt {
		t.Fatalf("err = %v, want halt", err)
	}
}

func TestSleepWithNoWakeSourceFaults(t *testing.T) {
	m := load(t, `
main:
    sleep
`)
	err := m.Run(1_000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultDeadSleep {
		t.Fatalf("err = %v, want dead sleep fault", err)
	}
}

func TestIndirectAddressingWritesBack(t *testing.T) {
	m := load(t, `
main:
    ldi r26, 0x00
    ldi r27, 0x02
    ldi r16, 0x11
    ldi r17, 0x22
    st X+, r16
    st X+, r17
    ldi r26, 0x00
    ldi r27, 0x02
    ld r20, X+
    ld r21, X
    ldi r28, 0x10
    ldi r29, 0x02
    ldd r22, Y+2
    break
`)
	m.Poke(0x0212, 0x77)
	runUntilBreak(t, m, 1_000)
	if m.Reg(20) != 0x11 || m.Reg(21) != 0x22 {
		t.Errorf("ld X+ = %#x,%#x want 0x11,0x22", m.Reg(20), m.Reg(21))
	}
	if m.Reg(22) != 0x77 {
		t.Errorf("ldd Y+2 = %#x, want 0x77", m.Reg(22))
	}
}

func TestIjmpIcall(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(RAMEND)
    out SPL, r16
    ldi r16, hi8(RAMEND)
    out SPH, r16
    ldi r30, lo8(fn)
    ldi r31, hi8(fn)
    icall
    ldi r30, lo8(done)
    ldi r31, hi8(done)
    ijmp
    break             ; unreachable
fn:
    ldi r24, 9
    ret
done:
    inc r24
    break
`)
	runUntilBreak(t, m, 1_000)
	if m.Reg(24) != 10 {
		t.Errorf("r24 = %d, want 10", m.Reg(24))
	}
}

func TestTimer3Count(t *testing.T) {
	m := load(t, `
main:
    lds r24, TCNT3L
    lds r25, TCNT3H
    break
`)
	runUntilBreak(t, m, 100)
	got := uint16(m.Reg(24)) | uint16(m.Reg(25))<<8
	want := avr.Inst{Op: avr.OpLds}.Op // silence unused import if edited later
	_ = want
	if got > 4 { // a few instructions at clk/8
		t.Errorf("timer3 = %d, want small", got)
	}
}
