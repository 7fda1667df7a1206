package mcu

import (
	"runtime"
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
		m.SetTrapHandler(trap)
		setupSink = m
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("New+LoadFlash(600 words)+SetTrapHandler allocates %d B, want < 64 KiB", per)
	}
}

// TestUnloadedZeroSled: flash never loaded reads as erased (zero) words,
// which decode as NOP. A jump to word 0xFF00 of a machine holding only a
// small image at word 0 slides through the 256-word sled and wraps to word
// 0, identically on the checked and the fused tier; FlashWord and LPM
// read 0 there, and reading an unloaded page never allocates it.
func TestUnloadedZeroSled(t *testing.T) {
	const src = `
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
	run := func(stepwise bool, threshold int) *Machine {
		m := load(t, src)
		m.SetStepwise(stepwise)
		m.SetTranslation(threshold)
		runUntilBreak(t, m, 100_000)
		return m
	}
	checked := run(true, 0)
	fused := run(false, 1)
	requireSameState(t, "fused-vs-checked", fused, checked)
	if st := fused.TranslationStats(); st.FusedInsts == 0 {
		t.Errorf("fused run dispatched no blocks: %+v", st)
	}
	// First pass: inc, cpi, breq, jmp; the 256-NOP sled; second pass: inc,
	// cpi, breq, three ldi, lpm, break.
	if got := checked.Instructions(); got != 4+256+8 {
		t.Errorf("instructions = %d, want %d (sled did not run once and wrap)", got, 4+256+8)
	}
	if got := checked.Reg(20); got != 2 {
		t.Errorf("r20 = %d, want 2 (word 0 ran twice)", got)
	}
	if got := checked.Reg(16); got != 0 {
		t.Errorf("LPM from unloaded byte 0xF000 = %#x, want 0", got)
	}
	if w, b := checked.FlashWord(0xFF00), checked.FlashByte(2*0xFFFF+1); w != 0 || b != 0 {
		t.Errorf("FlashWord(0xFF00) = %#x, FlashByte(0x1FFFF) = %#x, want 0, 0", w, b)
	}
	for _, m := range []*Machine{checked, fused} {
		if m.flash[pageOf(0xFF00)] != erasedFlash || m.flash[pageOf(0x7800)] != erasedFlash {
			t.Error("executing or reading unloaded flash allocated a flash page")
		}
	}
}
