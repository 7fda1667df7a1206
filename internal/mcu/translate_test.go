package mcu

import (
	"bytes"
	"testing"

	"repro/internal/avr/asm"
)

// runIdentityMode runs identitySrc with the given translation threshold (1 =
// every block fuses on first landing, 0 = the default) or fully stepwise,
// and returns the finished machine.
func runIdentityMode(t *testing.T, stepwise bool, threshold int) *Machine {
	t.Helper()
	m := load(t, identitySrc)
	m.SetStepwise(stepwise)
	m.SetTranslation(threshold)
	runUntilBreak(t, m, 1_000_000)
	return m
}

// requireSameState asserts full architectural-state identity between two
// finished machines: cycles, retired instructions, PC, SP, SREG, and every
// byte of data memory.
func requireSameState(t *testing.T, name string, got, want *Machine) {
	t.Helper()
	if got.Cycles() != want.Cycles() {
		t.Errorf("%s: cycles %d, want %d", name, got.Cycles(), want.Cycles())
	}
	if got.Instructions() != want.Instructions() {
		t.Errorf("%s: instructions %d, want %d", name, got.Instructions(), want.Instructions())
	}
	if got.PC() != want.PC() {
		t.Errorf("%s: pc %#x, want %#x", name, got.PC(), want.PC())
	}
	if got.SP() != want.SP() {
		t.Errorf("%s: sp %#x, want %#x", name, got.SP(), want.SP())
	}
	if got.SREG() != want.SREG() {
		t.Errorf("%s: sreg %08b, want %08b", name, got.SREG(), want.SREG())
	}
	if got.data != want.data {
		for i := range got.data {
			if got.data[i] != want.data[i] {
				t.Errorf("%s: data[%#04x] = %#02x, want %#02x", name, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestTranslatedIdentity runs the identity program through the checked Step
// path and through the two-tier default run at threshold 1 and at the
// default threshold, and requires bit-identical architectural state from
// all three — and that the threshold-1 run actually dispatched blocks.
func TestTranslatedIdentity(t *testing.T) {
	slow := runIdentityMode(t, true, 0)
	fused := runIdentityMode(t, false, 1)
	def := runIdentityMode(t, false, 0)
	requireSameState(t, "fused-vs-stepwise", fused, slow)
	requireSameState(t, "default-vs-stepwise", def, slow)
	st := fused.TranslationStats()
	if st.Built == 0 || st.FusedDispatches == 0 || st.FusedInsts == 0 {
		t.Fatalf("fused run dispatched no blocks: %+v", st)
	}
	if st := slow.TranslationStats(); st != (TranslationStats{}) {
		t.Errorf("stepwise run reported stats %+v, want zero", st)
	}
}

// TestBlockInvalidationSecondWord pins the block-cache analogue of the
// micro-op base-1 invalidation rule: a translated block fuses a two-word
// LDS/STS with its operand address baked in, so patching only the operand
// word (which overlaps the block's [leader, end) span, not its leader) must
// kill the block. Without overlap invalidation the stale fused address would
// survive the patch — the uop cache is rebuilt, but the block would never
// consult it.
func TestBlockInvalidationSecondWord(t *testing.T) {
	t.Run("lds", func(t *testing.T) {
		m := load(t, `
main:
    lds r16, 0x0200
    break
`)
		m.SetTranslation(1)
		m.Poke(0x0200, 11)
		m.Poke(0x0204, 22)
		m.SetSP(0x10FF)
		runUntilBreak(t, m, 100_000)
		if got := m.Reg(16); got != 11 {
			t.Fatalf("first run: r16 = %d, want 11", got)
		}
		if st := m.TranslationStats(); st.FusedDispatches == 0 {
			t.Fatalf("first run executed no fused blocks: %+v", st)
		}
		// Patch only the operand word (flash word 1) to point at 0x0204.
		if err := m.LoadFlash(1, []uint16{0x0204}); err != nil {
			t.Fatal(err)
		}
		if st := m.TranslationStats(); st.Invalidations == 0 {
			t.Fatalf("second-word patch invalidated no blocks: %+v", st)
		}
		reRun(t, m)
		if got := m.Reg(16); got != 22 {
			t.Fatalf("after second-word patch: r16 = %d, want 22 (stale fused operand)", got)
		}
	})

	t.Run("sts", func(t *testing.T) {
		m := load(t, `
main:
    ldi r16, 77
    sts 0x0200, r16
    break
`)
		m.SetTranslation(1)
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
			t.Fatalf("after second-word patch: [0x0204] = %d, want 77 (stale fused operand)", got)
		}
	})
}

// TestAdoptImageDropsTranslatedBlocks extends the stale-pointer regression
// coverage to the block cache: a machine that translated blocks against its
// own image and then adopts another machine's image must not execute the old
// image's fused blocks. (The shared uop cache is swapped by AdoptImage; the
// private block cache must be flushed.)
func TestAdoptImageDropsTranslatedBlocks(t *testing.T) {
	child := load(t, `
main:
    ldi r16, 111
    ldi r17, 1
    break
`)
	child.SetTranslation(1)
	child.SetSP(0x10FF)
	runUntilBreak(t, child, 100_000)
	if got := child.Reg(16); got != 111 {
		t.Fatalf("first run: r16 = %d, want 111", got)
	}
	if st := child.TranslationStats(); st.Blocks == 0 {
		t.Fatalf("first run translated no blocks: %+v", st)
	}

	parent := load(t, `
main:
    ldi r16, 222
    ldi r17, 1
    break
`)
	child.AdoptImage(parent)
	if st := child.TranslationStats(); st.Blocks != 0 {
		t.Fatalf("AdoptImage left %d stale blocks live", st.Blocks)
	}
	child.Reset()
	child.SetTranslation(1)
	child.SetSP(0x10FF)
	runUntilBreak(t, child, 100_000)
	if got := child.Reg(16); got != 222 {
		t.Fatalf("after AdoptImage: r16 = %d, want 222 (stale fused block)", got)
	}
}

// TestRestoreStateDropsTranslatedBlocks: the block cache is derived state. A
// restore target that already translated blocks (against a hash-identical
// image, so they would even be usable) must still drop and rebuild them —
// and the restored continuation must match the source machine's.
func TestRestoreStateDropsTranslatedBlocks(t *testing.T) {
	src := load(t, stateWorkSrc)
	src.SetTranslation(1)
	if err := src.Run(5_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	wantUART, _, wantCycles, wantInsts := finishWork(t, src)

	target := load(t, stateWorkSrc)
	target.SetTranslation(1)
	finishWork(t, target) // populate the block cache with a full prior run
	if ts := target.TranslationStats(); ts.Blocks == 0 {
		t.Fatalf("prior run translated no blocks: %+v", ts)
	}
	if err := target.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if ts := target.TranslationStats(); ts.Blocks != 0 {
		t.Fatalf("RestoreState left %d blocks live", ts.Blocks)
	}
	target.ClearFault()
	gotUART, _, gotCycles, gotInsts := finishWork(t, target)
	if !bytes.Equal(gotUART, wantUART) || gotCycles != wantCycles || gotInsts != wantInsts {
		t.Errorf("restored continuation = %q/%d cycles/%d insts, want %q/%d/%d",
			gotUART, gotCycles, gotInsts, wantUART, wantCycles, wantInsts)
	}
}

// fuzzPatchSrc is the self-invalidation workload: a hot ALU/memory loop long
// enough that threshold-1 translation fuses it, with stack and store traffic
// so patched words can land inside fused bodies, on operand words, and on
// terminators alike.
const fuzzPatchSrc = `
main:
    ldi r16, lo8(0x10FF)
    out SPL, r16
    ldi r16, hi8(0x10FF)
    out SPH, r16
    ldi r24, 150
    clr r20
    clr r21
loop:
    mov r18, r24
    lsr r18
    add r20, r18
    adc r21, r1
    eor r18, r20
    push r18
    pop r19
    sts 0x0200, r20
    lds r23, 0x0200
    sbrs r24, 0
    inc r22
    dec r24
    brne loop
    break
`

// FuzzBlockInvalidation loads the (position-independent) workload at a
// random base, writes a random flash word mid-run, and requires that fused
// execution (threshold 1) never diverges from the checked interpreter: both
// see the patch at the same cycle boundary, both re-decode it, and both
// finish in bit-identical state (or fail with the same fault at the same
// point, when the patch corrupts the program). Bases near a page boundary
// split the loop across two pages, so patches land on either side of it.
func FuzzBlockInvalidation(f *testing.F) {
	p, err := asm.Assemble("fuzz-patch", fuzzPatchSrc)
	if err != nil {
		f.Fatal(err)
	}
	codeLen := uint32(len(p.Words))

	f.Add(uint32(0), uint32(8), uint16(0x0000), uint32(500))  // NOP over a body op
	f.Add(uint32(0), uint32(15), uint16(0x0204), uint32(800)) // STS operand word
	f.Add(uint32(0), uint32(18), uint16(0xF7F1), uint32(300)) // rewrite the loop branch
	f.Add(uint32(0), uint32(9), uint16(0x9508), uint32(1000)) // RET into the loop body
	// The LDS at word 16 straddles words 0x00FF/0x0100; patch only its
	// operand word, on the second page.
	f.Add(uint32(0xFF-16), uint32(17), uint16(0x0204), uint32(800))

	f.Fuzz(func(t *testing.T, base, word uint32, val uint16, patchAt uint32) {
		base %= 2 * pageWords
		word = base + word%codeLen
		// Stop both machines at the same mid-run cycle boundary, patch the
		// same word, and run to completion.
		patchCycle := 100 + uint64(patchAt%5000)
		run := func(fused bool) (*Machine, error) {
			m := New()
			if err := m.LoadFlash(base, p.Words); err != nil {
				t.Fatal(err)
			}
			if fused {
				m.SetTranslation(1)
			} else {
				m.SetStepwise(true)
			}
			m.SetPC(base)
			m.SetSP(0x10FF)
			if err := m.Run(patchCycle); err != nil {
				return m, err
			}
			if err := m.LoadFlash(word, []uint16{val}); err != nil {
				t.Fatal(err)
			}
			return m, m.Run(100_000)
		}
		checked, errC := run(false)
		fused, errF := run(true)
		if (errC == nil) != (errF == nil) {
			t.Fatalf("divergent outcome: checked err=%v, fused err=%v", errC, errF)
		}
		if errC != nil && errC.Error() != errF.Error() {
			t.Fatalf("divergent fault: checked %v, fused %v", errC, errF)
		}
		requireSameState(t, "fused-vs-checked", fused, checked)
	})
}
