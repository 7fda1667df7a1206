package rewriter

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/avr"
	"repro/internal/avr/asm"
	"repro/internal/image"
)

func mustRewrite(t *testing.T, src string, cfg Config) *Naturalized {
	t.Helper()
	p, err := asm.Assemble(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := Rewrite(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nat
}

// instCount counts instructions (not words), skipping data-in-text.
func instCount(p *image.Program, limitWords int) int {
	n := 0
	for pc := uint32(0); pc < uint32(limitWords); {
		if p.InTextData(pc) {
			pc++
			n++
			continue
		}
		in, err := avr.Decode(p.Words[pc:])
		if err != nil {
			pc++
			n++
			continue
		}
		n++
		pc += uint32(in.Words())
	}
	return n
}

const loopSrc = `
.data
buf: .space 4
.text
main:
    ldi r16, 10
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
loop:
    st X+, r16
    ld r17, -X
    dec r16
    brne loop
    sts buf, r16
    lds r18, buf
    call fn
    sleep
    rjmp main
fn:
    in r24, SPL
    in r25, SPH
    ret
`

func TestRewritePreservesInstructionCount(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	origCount := instCount(nat.Orig, len(nat.Orig.Words))
	natCount := instCount(nat.Program, nat.CodeWords)
	if origCount != natCount {
		t.Errorf("instruction count changed: orig %d, naturalized %d", origCount, natCount)
	}
}

func TestRewriteClassifiesSites(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	got := make(map[Class]int)
	for _, p := range nat.Patches {
		got[p.Class]++
	}
	wants := []struct {
		class Class
		min   int
	}{
		{ClassIndirectMem, 1}, // st X+ / ld -X (grouped)
		{ClassBranch, 2},      // brne loop (backward), rjmp main (backward)
		{ClassDirectMem, 2},   // sts buf / lds buf
		{ClassCall, 1},        // call fn
		{ClassSleep, 1},
		{ClassSPRead, 2}, // in SPL, in SPH
	}
	for _, w := range wants {
		if got[w.class] < w.min {
			t.Errorf("class %v: got %d sites, want >= %d (all: %v)", w.class, got[w.class], w.min, got)
		}
	}
}

func TestRewriteGroupsIndirectAccesses(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	var group *Patch
	for _, p := range nat.Patches {
		if p.Class == ClassIndirectMem {
			group = p
			break
		}
	}
	if group == nil {
		t.Fatal("no indirect-mem patch")
	}
	if len(group.Group) != 2 {
		t.Fatalf("group length = %d, want 2 (st X+ then ld -X)", len(group.Group))
	}
	if group.Group[0].Op != avr.OpStXInc || group.Group[1].Op != avr.OpLdXDec {
		t.Errorf("group ops = %v,%v", group.Group[0].Op, group.Group[1].Op)
	}
	// NatNext must skip the member slot.
	if group.NatNext != group.NatPC+2+1 {
		t.Errorf("NatNext = %#x, want NatPC+3", group.NatNext)
	}

	// With grouping disabled there must be two separate patches.
	natNo := mustRewrite(t, loopSrc, Config{NoGrouping: true})
	count := 0
	for _, p := range natNo.Patches {
		if p.Class == ClassIndirectMem {
			count++
			if len(p.Group) != 1 {
				t.Errorf("NoGrouping produced a group of %d", len(p.Group))
			}
		}
	}
	if count != 2 {
		t.Errorf("NoGrouping indirect-mem patches = %d, want 2", count)
	}
}

func TestShiftTableMapsEveryInstruction(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	// Walk the original; each instruction's naturalized address per the
	// shift table must hold either the original (kept) instruction or a
	// KTRAP slot.
	orig := nat.Orig
	for pc := uint32(0); pc < uint32(len(orig.Words)); {
		in, err := avr.Decode(orig.Words[pc:])
		if err != nil {
			t.Fatal(err)
		}
		natPC := nat.Shift.Map(pc)
		got, err := avr.Decode(nat.Program.Words[natPC:])
		if err != nil {
			t.Fatalf("decode naturalized at %#x: %v", natPC, err)
		}
		if got.Op != in.Op && got.Op != avr.OpKtrap {
			t.Errorf("orig %#x (%s) mapped to %#x holding %s", pc, avr.Disasm(in), natPC, avr.Disasm(got))
		}
		pc += uint32(in.Words())
	}
}

func TestRewriteKeepsForwardBranchesAndRetargets(t *testing.T) {
	nat := mustRewrite(t, `
main:
    ldi r16, 1
    sts 0x0200, r16   ; inflates? no: lds/sts stay 2 words
    ld r17, X         ; inflates 1 -> 2
    tst r16
    breq skip
    ld r18, X         ; inflates
skip:
    break
`, Config{})
	// Find the kept breq in the naturalized code and verify its target is
	// the naturalized 'skip'.
	var found bool
	for pc := uint32(0); pc < uint32(nat.CodeWords); {
		in, err := avr.Decode(nat.Program.Words[pc:])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == avr.OpBrbs {
			found = true
			skipSym, ok := nat.Program.Lookup("skip")
			if !ok {
				t.Fatal("no skip symbol")
			}
			if got := in.RelTarget(pc); got != skipSym.Addr {
				t.Errorf("breq target = %#x, want %#x", got, skipSym.Addr)
			}
		}
		pc += uint32(in.Words())
	}
	if !found {
		t.Error("forward breq should be kept native")
	}
}

func TestRewritePatchesOverflowingForwardBranch(t *testing.T) {
	// Build a forward branch whose displacement fits originally (just under
	// 64 words) but overflows once the many LD instructions double in size.
	var b strings.Builder
	b.WriteString("main:\n    tst r16\n    breq far\n")
	for i := 0; i < 60; i++ {
		b.WriteString("    ld r17, X\n")
	}
	b.WriteString("far:\n    break\n")
	nat := mustRewrite(t, b.String(), Config{})
	var patched bool
	for _, p := range nat.Patches {
		if p.Class == ClassBranch && !p.Backward {
			patched = true
			farSym, _ := nat.Program.Lookup("far")
			if p.NatTarget != farSym.Addr {
				t.Errorf("patched branch NatTarget = %#x, want %#x", p.NatTarget, farSym.Addr)
			}
		}
	}
	if !patched {
		t.Error("overflowing forward branch should have been patched")
	}
}

func TestTrampolineMerging(t *testing.T) {
	src := `
main:
    in r24, SPL
    in r24, SPL
    in r24, SPL
    sleep
    sleep
    break
`
	merged := mustRewrite(t, src, Config{})
	unmerged := mustRewrite(t, src, Config{NoTrampolineMerge: true})
	if merged.TrampolineWords >= unmerged.TrampolineWords {
		t.Errorf("merging should shrink trampolines: merged %d words, unmerged %d",
			merged.TrampolineWords, unmerged.TrampolineWords)
	}
	// Identical IN r24,SPL sites share one body.
	for _, tr := range merged.Trampolines {
		if strings.HasPrefix(tr.Key, "sp-read") && tr.Sites != 3 {
			t.Errorf("sp-read trampoline sites = %d, want 3", tr.Sites)
		}
	}
}

func TestRewriteTimer3AccessIsReserved(t *testing.T) {
	nat := mustRewrite(t, `
main:
    lds r24, TCNT3L
    lds r25, TCNT3H
    break
`, Config{})
	count := 0
	for _, p := range nat.Patches {
		if p.Class == ClassReservedIO {
			count++
		}
	}
	if count != 2 {
		t.Errorf("reserved-io patches = %d, want 2", count)
	}
}

func TestRewriteDirectIOStaysCheap(t *testing.T) {
	nat := mustRewrite(t, `
main:
    lds r24, 0x0052    ; TCNT0 via data space: I/O area
    sts 0x0038, r24    ; PORTB via data space
    break
`, Config{})
	for _, p := range nat.Patches {
		if p.Class != ClassDirectIO {
			continue
		}
		if shared, site := trampolineWords(p); shared != 0 || site != 0 {
			t.Errorf("direct I/O should have no trampoline body")
		}
	}
}

func TestRewriteTextDataPreserved(t *testing.T) {
	nat := mustRewrite(t, `
main:
    ldi r30, lo8(pmbyte(tab))
    ldi r31, hi8(pmbyte(tab))
    lpm r24, Z+
    break
tab:
    .dw 0xAFFE, 0x1234
`, Config{})
	tab, ok := nat.Program.Lookup("tab")
	if !ok {
		t.Fatal("tab symbol lost")
	}
	if nat.Program.Words[tab.Addr] != 0xAFFE || nat.Program.Words[tab.Addr+1] != 0x1234 {
		t.Errorf("table moved incorrectly: %#x %#x at %#x",
			nat.Program.Words[tab.Addr], nat.Program.Words[tab.Addr+1], tab.Addr)
	}
	if !nat.Program.InTextData(tab.Addr) {
		t.Error("naturalized TextData range lost")
	}
	// The LPM byte-address mapping must find the same data.
	origTab, _ := nat.Orig.Lookup("tab")
	if got := nat.Shift.MapByte(uint16(origTab.Addr * 2)); got != tab.Addr*2 {
		t.Errorf("MapByte = %#x, want %#x", got, tab.Addr*2)
	}
}

func TestRewriteInflationBound(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	origBytes := nat.Orig.SizeBytes()
	natBytes := nat.Program.SizeBytes()
	// The toy program is almost entirely patch sites, so its inflation is
	// far above what realistic programs see (Figure 4 checks the <=200%%
	// claim on the seven kernel benchmarks); here we only bound the
	// worst case.
	if natBytes > 8*origBytes {
		t.Errorf("inflation %d%% is unreasonable even for a toy: %d -> %d bytes",
			100*(natBytes-origBytes)/origBytes, origBytes, natBytes)
	}
}

func TestRewriteLocalIDsAreSequentialAndDecodable(t *testing.T) {
	nat := mustRewrite(t, loopSrc, Config{})
	for i, p := range nat.Patches {
		if int(p.Local) != i {
			t.Fatalf("patch %d has local id %d", i, p.Local)
		}
		in, err := avr.Decode(nat.Program.Words[p.NatPC:])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != avr.OpKtrap || in.Imm != int32(p.Local) {
			t.Errorf("slot at %#x = %s, want ktrap %d", p.NatPC, avr.Disasm(in), p.Local)
		}
	}
}

func TestRewriteEntryRemapped(t *testing.T) {
	nat := mustRewrite(t, `
boot:
    ld r0, X     ; inflates before main
    ld r1, X
.entry main
main:
    break
`, Config{})
	mainSym, _ := nat.Program.Lookup("main")
	if nat.Program.Entry != mainSym.Addr {
		t.Errorf("entry = %#x, want %#x", nat.Program.Entry, mainSym.Addr)
	}
	if nat.Program.Entry == nat.Orig.Entry {
		t.Error("entry should have shifted")
	}
}

func TestGroupingStopsAtLabels(t *testing.T) {
	// A code label between two consecutive accesses is a basic-block leader
	// (it may be an indirect-branch target), so the group must not span it.
	nat := mustRewrite(t, `
main:
    ld r16, X+
mid:
    ld r17, X+
    break
`, Config{})
	for _, p := range nat.Patches {
		if p.Class == ClassIndirectMem && len(p.Group) != 1 {
			t.Errorf("group of %d spans the label", len(p.Group))
		}
	}
}

func TestGroupingStopsAfterSkip(t *testing.T) {
	// SBRC may skip exactly one instruction; if the two loads were fused
	// into one service at the first load's slot, the skip-over target would
	// land on a raw, untranslated instruction.
	nat := mustRewrite(t, `
main:
    sbrc r16, 0
    ld r17, X+
    ld r18, X+
    break
`, Config{})
	for _, p := range nat.Patches {
		if p.Class == ClassIndirectMem && len(p.Group) != 1 {
			t.Errorf("group of %d crosses a skip boundary", len(p.Group))
		}
	}
}

func TestGroupingStopsWhenLoadClobbersPointer(t *testing.T) {
	// "ld r26, X+" overwrites XL mid-run; executing the second access with
	// the pre-clobber translation would be wrong, so the group must end.
	nat := mustRewrite(t, `
main:
    ld r26, X+
    ld r17, X+
    break
`, Config{})
	for _, p := range nat.Patches {
		if p.Class == ClassIndirectMem && len(p.Group) != 1 {
			t.Errorf("group of %d spans a pointer clobber", len(p.Group))
		}
	}
}

func TestGroupLimitIsFour(t *testing.T) {
	nat := mustRewrite(t, `
main:
    ld r1, X+
    ld r2, X+
    ld r3, X+
    ld r4, X+
    ld r5, X+
    ld r6, X+
    break
`, Config{})
	var sizes []int
	for _, p := range nat.Patches {
		if p.Class == ClassIndirectMem {
			sizes = append(sizes, len(p.Group))
		}
	}
	if len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 2 {
		t.Errorf("group sizes = %v, want [4 2]", sizes)
	}
}

func TestGroupLimitAboveMaxRejected(t *testing.T) {
	p, err := asm.Assemble("g", "main:\n    ld r1, X+\n    break\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rewrite(p, Config{GroupLimit: MaxGroup + 1}); err == nil {
		t.Fatalf("GroupLimit %d accepted", MaxGroup+1)
	}
}

func TestCrossProgramTrampolineSharing(t *testing.T) {
	a := mustRewrite(t, loopSrc, Config{})
	// A second, distinct program with overlapping patch shapes.
	b := mustRewrite(t, `
main:
    in r24, SPL
    in r25, SPH
    ld r16, X+
    sleep
    rjmp main
`, Config{})
	shared, separate := SharedTrampolineWords(a, b)
	if shared >= separate {
		t.Errorf("cross-program merge should save space: shared %d, separate %d",
			shared, separate)
	}
	// One program alone must match its own trampoline accounting.
	s1, p1 := SharedTrampolineWords(a)
	if s1 != a.TrampolineWords || p1 != a.TrampolineWords {
		t.Errorf("single-program sharing = %d/%d, want %d", s1, p1, a.TrampolineWords)
	}
}

func TestRewriteNeverPanicsOnArbitraryWords(t *testing.T) {
	// The rewriter consumes binaries; on garbage input it must return an
	// error, never panic or loop.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := make([]uint16, 4+r.Intn(64))
		for i := range words {
			words[i] = uint16(r.Intn(0x10000))
		}
		prog := &image.Program{Name: "fuzz", Words: words, HeapBase: 0x100}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("seed %d: panic: %v", seed, p)
			}
		}()
		nat, err := Rewrite(prog, Config{})
		if err != nil {
			return true // rejecting garbage is correct
		}
		// If it claims success, the output must be internally consistent.
		return nat.Program.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
