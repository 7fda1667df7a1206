package mcu

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// setupSink keeps the machines TestSetupAllocatesPagesOnly builds on the
// heap, as real callers' machines are.
var setupSink *Machine

// TestSetupAllocatesPagesOnly pins the cost of building a machine — the
// per-run set-up of every benchmark run, campaign trial and seek: New, a
// 600-word image, and a trap handler allocate the few pages the image
// touches, not whole-flash arrays.
func TestSetupAllocatesPagesOnly(t *testing.T) {
	img := make([]uint16, 600)
	for i := range img {
		img[i] = uint16(i)
	}
	trap := func(*Machine, uint16) error { return nil }
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m := New()
		if err := m.LoadFlash(0, img); err != nil {
			t.Fatal(err)
		}
		m.SetTrapHandler(trap, nil)
		setupSink = m
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("New+LoadFlash(600 words)+SetTrapHandler allocates %d B, want < 64 KiB", per)
	}
}

// TestUnloadedZeroSled: flash never loaded reads as erased (zero) words,
// which decode as NOP. Execution that reaches an unloaded page slides
// through the rest of flash and wraps to word 0, identically on the checked
// and the fused tier, however it got there: a jump, a RET, running off the
// end of loaded code, or a RETI from a Timer0 interrupt taken inside the
// sled; a checkpoint and an injector falling due inside the sled fire at the
// same boundary on both tiers. The fused tier retires the sled a page at a
// time (ErasedInsts) without decoding it, so it allocates no micro-op page
// there, and at threshold 1 it also runs the loaded code as blocks.
// FlashWord and LPM read 0 from unloaded flash, and running or reading an
// unloaded page allocates it on neither tier.
func TestUnloadedZeroSled(t *testing.T) {
	const jmpSrc = `
main:
    inc r20
    cpi r20, 2
    breq done
    jmp 0xFF00
done:
    ldi r31, 0xF0
    ldi r30, 0x00
    ldi r16, 0xAA
    lpm r16, Z
    break
`
	// The sled from 0xF000 is 4096 NOPs long, so the hooks below fall due
	// inside it.
	const retSrc = `
main:
    inc r20
    cpi r20, 2
    breq done
    ldi r16, 0x00
    push r16
    ldi r16, 0xF0
    push r16
    ret
done:
    break
`
	const runOffSrc = `
main:
    inc r20
    cpi r20, 2
    breq done
    jmp tail
done:
    break
.org 0xFC
tail:
    inc r21
    inc r21
    inc r21
    inc r21
`
	const timerSrc = `
    jmp main
.org 2
    jmp t0vec
main:
    inc r20
    cpi r20, 2
    breq done
    ldi r16, 1
    out TIMSK, r16
    ldi r16, 1           ; clk/1: an overflow every 256 cycles
    out TCCR0, r16
    sei
    jmp 0xF000
done:
    break
t0vec:
    inc r22
    reti
`
	// A hook records where it fired; the injector also changes a register.
	type fire struct{ cycle, pc uint64 }
	checkpoint := func(m *Machine, fires *[]fire) {
		m.SetCheckpoint(1000, func(uint64) { *fires = append(*fires, fire{m.Cycles(), uint64(m.PC())}) })
	}
	injector := func(m *Machine, fires *[]fire) {
		m.SetInjector(2000, func(m *Machine) {
			*fires = append(*fires, fire{m.Cycles(), uint64(m.PC())})
			m.SetReg(23, 0xA5)
		})
	}
	cases := []struct {
		name  string
		src   string
		arm   func(*Machine, *[]fire)
		fires int
	}{
		{"jmp", jmpSrc, nil, 0},
		{"ret", retSrc, nil, 0},
		{"run off loaded code", runOffSrc, nil, 0},
		{"timer0 interrupts", timerSrc, nil, 0},
		{"checkpoint", retSrc, checkpoint, 1},
		{"injector", retSrc, injector, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(stepwise bool, threshold int) (*Machine, []fire) {
				m := load(t, tc.src)
				m.SetStepwise(stepwise)
				m.SetTranslation(threshold)
				var fires []fire
				if tc.arm != nil {
					tc.arm(m, &fires)
				}
				runUntilBreak(t, m, 1_000_000)
				return m, fires
			}
			checked, want := run(true, 0)
			if len(want) != tc.fires {
				t.Fatalf("stepwise run fired %d hooks, want %d", len(want), tc.fires)
			}
			for _, threshold := range []int{1, 0} {
				fused, fires := run(false, threshold)
				name := fmt.Sprintf("threshold %d", threshold)
				requireSameState(t, name, fused, checked)
				if !slices.Equal(fires, want) {
					t.Errorf("%s: hooks fired at %v, stepwise at %v", name, fires, want)
				}
				st := fused.TranslationStats()
				if st.ErasedInsts == 0 {
					t.Errorf("%s: the sled was not fast-forwarded on the fused tier: %+v", name, st)
				}
				if threshold == 1 && st.FusedDispatches == 0 {
					t.Errorf("%s: fused run dispatched no blocks: %+v", name, st)
				}
				for i, p := range fused.flash {
					if checked.flash[i] == erasedFlash && p != erasedFlash {
						t.Fatalf("%s: running or reading unloaded page %d allocated it", name, i)
					}
					if p == erasedFlash && fused.uops[i] != erasedUops {
						t.Fatalf("%s: running the sled allocated the micro-op page of unloaded page %d", name, i)
					}
				}
			}
		})
	}

	m := load(t, jmpSrc)
	m.SetStepwise(true)
	runUntilBreak(t, m, 100_000)
	// First pass: inc, cpi, breq, jmp; the 256-NOP sled; second pass: inc,
	// cpi, breq, three ldi, lpm, break.
	if got := m.Instructions(); got != 4+256+8 {
		t.Errorf("instructions = %d, want %d (sled did not run once and wrap)", got, 4+256+8)
	}
	if got := m.Reg(20); got != 2 {
		t.Errorf("r20 = %d, want 2 (word 0 ran twice)", got)
	}
	if got := m.Reg(16); got != 0 {
		t.Errorf("LPM from unloaded byte 0xF000 = %#x, want 0", got)
	}
	if w, b := m.FlashWord(0xFF00), m.FlashByte(2*0xFFFF+1); w != 0 || b != 0 {
		t.Errorf("FlashWord(0xFF00) = %#x, FlashByte(0x1FFFF) = %#x, want 0, 0", w, b)
	}
	if m.flash[pageOf(0xFF00)] != erasedFlash || m.flash[pageOf(0x7800)] != erasedFlash {
		t.Error("executing or reading unloaded flash allocated a flash page")
	}
}
