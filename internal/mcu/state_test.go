package mcu

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
	"sync"
	"testing"
)

// stateWorkSrc exercises every peripheral a snapshot must carry: ADC
// conversions off the deterministic LFSR noise source, UART transmits, and
// radio frames, all inside one loop.
const stateWorkSrc = `
main:
    ldi r16, lo8(RAMEND)
    out SPL, r16
    ldi r16, hi8(RAMEND)
    out SPH, r16
    ldi r20, 12
loop:
    mov r16, r20
    andi r16, 7
    out ADMUX, r16
    ldi r16, 0xC0     ; ADEN|ADSC
    out ADCSRA, r16
adcw:
    in r17, ADCSRA
    sbrc r17, 6
    rjmp adcw
    in r24, ADCL
    rcall putc
    rcall txb
    dec r20
    brne loop
    break
putc:
    in r17, UCSR0A
    sbrs r17, 5
    rjmp putc
    out UDR0, r24
    ret
txb:
    in r17, RSR
    sbrs r17, 0
    rjmp txb
    out RDR, r24
    ret
`

// finishWork drains the workload to BREAK plus the last in-flight device
// bytes, returning the machine's observable end state.
func finishWork(t *testing.T, m *Machine) (uart []byte, radio []RadioFrame, cycles, insts uint64) {
	t.Helper()
	runUntilBreak(t, m, 10_000_000)
	m.fault = nil
	m.AddCycles(UARTByteCycles + RadioByteCycles)
	m.FlushDevices()
	return m.UARTOutput(), m.RadioOutput(), m.cycle, m.insts
}

// TestRestoreResumeIdentity pins machine-level resume identity: a machine
// restored from a mid-run snapshot must finish with the same cycle count,
// instruction count, device output, and CPU state as the uninterrupted run —
// including the ADC noise stream, whose LFSR is part of the snapshot.
func TestRestoreResumeIdentity(t *testing.T) {
	ref := load(t, stateWorkSrc)
	wantUART, wantRadio, wantCycles, wantInsts := finishWork(t, ref)
	if len(wantUART) != 12 || len(wantRadio) != 12 {
		t.Fatalf("workload emitted %d uart / %d radio bytes, want 12/12", len(wantUART), len(wantRadio))
	}

	src := load(t, stateWorkSrc)
	if err := src.Run(wantCycles / 2); err != nil {
		t.Fatalf("mid-run stop: %v", err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	dst := load(t, stateWorkSrc)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	gotUART, gotRadio, gotCycles, gotInsts := finishWork(t, dst)
	if !bytes.Equal(gotUART, wantUART) {
		t.Errorf("uart = %q, want %q", gotUART, wantUART)
	}
	if len(gotRadio) != len(wantRadio) {
		t.Fatalf("radio frames = %d, want %d", len(gotRadio), len(wantRadio))
	}
	for i := range gotRadio {
		if gotRadio[i] != wantRadio[i] {
			t.Errorf("radio[%d] = %+v, want %+v", i, gotRadio[i], wantRadio[i])
		}
	}
	if gotCycles != wantCycles || gotInsts != wantInsts {
		t.Errorf("cycles/insts = %d/%d, want %d/%d", gotCycles, gotInsts, wantCycles, wantInsts)
	}
	if dst.pc != ref.pc || dst.data != ref.data {
		t.Error("restored machine's CPU state diverged from the uninterrupted run")
	}

	// The source machine must be unperturbed by the capture: it finishes
	// identically too.
	srcUART, _, srcCycles, _ := finishWork(t, src)
	if !bytes.Equal(srcUART, wantUART) || srcCycles != wantCycles {
		t.Error("capturing state perturbed the running machine")
	}
}

// TestRestoreDoesNotAliasState pins the aliasing contract from both sides:
// after restore, writes through the snapshot must not reach the machine, and
// the machine's continued execution must not mutate the snapshot.
func TestRestoreDoesNotAliasState(t *testing.T) {
	src := load(t, stateWorkSrc)
	if err := src.Run(20_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Dev.UARTOut) == 0 || len(st.Dev.RadioOut) == 0 {
		t.Fatalf("workload state at 20k cycles has no device output (uart=%d radio=%d)",
			len(st.Dev.UARTOut), len(st.Dev.RadioOut))
	}

	dst := load(t, stateWorkSrc)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	// Scribble through the snapshot; the machine must not see it.
	uart0, radio0 := st.Dev.UARTOut[0], st.Dev.RadioOut[0]
	st.Dev.UARTOut[0] ^= 0xFF
	st.Dev.RadioOut[0].Byte ^= 0xFF
	st.Data[SRAMBase] ^= 0xFF
	if dst.dev.uartOut[0] != uart0 {
		t.Error("restored UART buffer aliases the snapshot slice")
	}
	if dst.dev.radioOut[0] != radio0 {
		t.Error("restored radio buffer aliases the snapshot slice")
	}
	if dst.data[SRAMBase] == st.Data[SRAMBase] {
		t.Error("restored SRAM aliases the snapshot slice")
	}
	st.Dev.UARTOut[0], st.Dev.RadioOut[0] = uart0, radio0
	st.Data[SRAMBase] ^= 0xFF

	// Run the machine on; the snapshot must stay frozen.
	wantUART := append([]byte(nil), st.Dev.UARTOut...)
	finishWork(t, dst)
	if !bytes.Equal(st.Dev.UARTOut, wantUART) {
		t.Error("machine execution mutated the snapshot's UART buffer")
	}
}

// TestCaptureRefusesOpaqueHooks: a custom ADC source closure and an armed
// fault injector are unserializable pending effects — capture must fail with
// the typed errors, not silently drop them.
func TestCaptureRefusesOpaqueHooks(t *testing.T) {
	m := load(t, stateWorkSrc)
	m.SetADCSource(func(uint8) uint16 { return 7 })
	if _, err := m.CaptureState(); !errors.Is(err, ErrCustomADCSource) {
		t.Errorf("capture with ADC source: %v, want ErrCustomADCSource", err)
	}
	m.SetADCSource(nil)
	if _, err := m.CaptureState(); err != nil {
		t.Fatalf("capture after clearing source: %v", err)
	}

	m.SetInjector(1_000, func(*Machine) {})
	if _, err := m.CaptureState(); !errors.Is(err, ErrArmedInjector) {
		t.Errorf("capture with armed injector: %v, want ErrArmedInjector", err)
	}
}

// TestRestoreRejectsImageMismatch: restoring onto a machine whose flash
// differs from the snapshot's image hash must fail — the snapshot carries no
// flash, so the target's image is load-bearing.
func TestRestoreRejectsImageMismatch(t *testing.T) {
	src := load(t, stateWorkSrc)
	if err := src.Run(10_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	other := load(t, uartEmitSrc)
	if err := other.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore onto different image: %v, want ErrImageMismatch", err)
	}
}

// TestFlashDigestTracksImage: the image digest is computed once per image
// and kept, so it must equal the SHA-256 of the whole flat flash image, every
// flash write must drop it (a stale digest would let a snapshot restore onto
// a patched image), and an adopting machine inherits its parent's.
func TestFlashDigestTracksImage(t *testing.T) {
	m := load(t, stateWorkSrc)
	st, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]byte, 2*FlashWords)
	for i := range FlashWords {
		w := m.FlashWord(uint32(i))
		flat[2*i], flat[2*i+1] = byte(w), byte(w>>8)
	}
	if st.FlashHash != sha256.Sum256(flat) {
		t.Fatal("flash digest differs from the SHA-256 of the flat image")
	}

	w := m.FlashWord(5)
	if err := m.LoadFlash(5, []uint16{w ^ 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore onto a patched image: %v, want ErrImageMismatch", err)
	}
	if err := m.LoadFlash(5, []uint16{w}); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(st); err != nil {
		t.Fatalf("restore after undoing the patch: %v", err)
	}

	child := New()
	child.AdoptImage(m)
	if !child.digestOK || child.digest != st.FlashHash {
		t.Error("AdoptImage did not inherit the parent's digest")
	}
	if err := child.RestoreState(st); err != nil {
		t.Errorf("restore onto an adopted image: %v", err)
	}
}

// TestRestoreRejectsBadGeometry: a snapshot with a truncated data segment or
// a mismatched sampler interval must be refused.
func TestRestoreRejectsBadGeometry(t *testing.T) {
	src := load(t, stateWorkSrc)
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}

	trunc := *st
	trunc.Data = st.Data[:100]
	if err := load(t, stateWorkSrc).RestoreState(&trunc); !errors.Is(err, ErrSnapshotDataSize) {
		t.Errorf("restore of truncated data segment: %v, want ErrSnapshotDataSize", err)
	}

	sampled := load(t, stateWorkSrc)
	sampled.SetSampler(4096, func(uint64) {})
	if err := sampled.RestoreState(st); !errors.Is(err, ErrSamplerMismatch) {
		t.Errorf("restore with different sampler interval: %v, want ErrSamplerMismatch", err)
	}
}

// TestAdoptImageCopyOnWrite: after AdoptImage the two machines share every
// flash and micro-op page; a LoadFlash on the child must copy only the page
// it writes, leave the parent's words and micro-ops untouched, and many
// children must be able to adopt one parent and run concurrently.
func TestAdoptImageCopyOnWrite(t *testing.T) {
	parent := load(t, stateWorkSrc)
	wantUART, wantRadio, wantCycles, wantInsts := finishWork(t, parent)

	child := New()
	child.AdoptImage(parent)
	for i := range parent.flash {
		if child.flash[i] != parent.flash[i] || child.uops[i] != parent.uops[i] {
			t.Fatalf("AdoptImage did not share page %d", i)
		}
	}
	if parent.flash[0] == erasedFlash || parent.uops[0] == erasedUops {
		t.Fatal("parent run left page 0 unallocated")
	}
	flash0, uops0 := parent.flash[0].v, parent.uops[0].v
	parentFlash0, parentUops0 := parent.flash[0], parent.uops[0]

	// Patch a word in page 1 (absent in the parent: the image is one page)
	// and one in page 0.
	if parent.flash[1] != erasedFlash {
		t.Fatalf("stateWorkSrc spans more than page 0")
	}
	if err := child.LoadFlash(pageWords+3, []uint16{0x1234}); err != nil {
		t.Fatal(err)
	}
	if err := child.LoadFlash(0, []uint16{0x1234}); err != nil {
		t.Fatal(err)
	}
	if child.flash[0] == parent.flash[0] || child.uops[0] == parent.uops[0] {
		t.Error("LoadFlash into a shared page did not copy it")
	}
	if child.flash[1] == erasedFlash || parent.flash[1] != erasedFlash {
		t.Error("LoadFlash into an absent page did not allocate it privately")
	}
	for i := 2; i < numPages; i++ {
		if child.flash[i] != parent.flash[i] || child.uops[i] != parent.uops[i] {
			t.Fatalf("LoadFlash into pages 0-1 unshared page %d", i)
		}
	}
	if child.FlashWord(0) != 0x1234 || child.FlashWord(1) != flash0[1] {
		t.Errorf("child page 0 = %#x %#x, want the patch over the parent's words",
			child.FlashWord(0), child.FlashWord(1))
	}
	if parent.flash[0] != parentFlash0 || parent.uops[0] != parentUops0 ||
		parent.flash[0].v != flash0 || parent.uops[0].v != uops0 {
		t.Error("LoadFlash on the child changed the parent's page 0")
	}

	// Eight fresh children adopt the parent concurrently and run the image;
	// each must finish exactly like the parent did (run under -race).
	type result struct {
		err    error
		uart   []byte
		radio  []RadioFrame
		cycles uint64
		insts  uint64
		data   [DataSize]byte
	}
	res := make([]result, 8)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			m := New()
			m.AdoptImage(parent)
			var f *Fault
			if err := m.Run(10_000_000); !errors.As(err, &f) || f.Kind != FaultBreak {
				r.err = err
				return
			}
			m.fault = nil
			m.AddCycles(UARTByteCycles + RadioByteCycles)
			m.FlushDevices()
			r.uart, r.radio, r.cycles, r.insts, r.data =
				m.UARTOutput(), m.RadioOutput(), m.cycle, m.insts, m.data
		}(&res[i])
	}
	wg.Wait()
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("adopter %d: expected clean BREAK stop, got %v", i, r.err)
		}
		if !bytes.Equal(r.uart, wantUART) || !slices.Equal(r.radio, wantRadio) ||
			r.cycles != wantCycles || r.insts != wantInsts || r.data != parent.data {
			t.Errorf("adopter %d = %q/%d cycles/%d insts, want %q/%d/%d (or data/radio differ)",
				i, r.uart, r.cycles, r.insts, wantUART, wantCycles, wantInsts)
		}
	}
	if parent.flash[0] != parentFlash0 || parent.flash[0].v != flash0 || parent.uops[0].v != uops0 {
		t.Error("concurrent adopters changed the parent's page 0")
	}
}

// TestCheckpointHookFiresOnceAtBoundary: the checkpoint hook fires exactly
// once, at the first instruction boundary at or after the armed cycle, and
// arming it does not change the machine's trajectory.
func TestCheckpointHookFiresOnceAtBoundary(t *testing.T) {
	ref := load(t, stateWorkSrc)
	wantUART, _, wantCycles, wantInsts := finishWork(t, ref)

	m := load(t, stateWorkSrc)
	var fired []uint64
	var atCycle uint64
	m.SetCheckpoint(wantCycles/2, func(at uint64) {
		fired = append(fired, at)
		atCycle = m.cycle
	})
	gotUART, _, gotCycles, gotInsts := finishWork(t, m)
	if len(fired) != 1 || fired[0] != wantCycles/2 {
		t.Fatalf("hook fired %v, want exactly once with the nominal cycle %d", fired, wantCycles/2)
	}
	if atCycle < wantCycles/2 || atCycle >= wantCycles {
		t.Errorf("hook fired at cycle %d, want within [%d, %d)", atCycle, wantCycles/2, wantCycles)
	}
	if !bytes.Equal(gotUART, wantUART) || gotCycles != wantCycles || gotInsts != wantInsts {
		t.Error("arming a checkpoint perturbed the run")
	}
}

// TestRestoreReschedulesSampler restores a sampled machine's mid-run
// snapshot into a machine that has already run past it. The restored run
// must sample at the source run's boundaries: RestoreState reschedules the
// hook schedule's due cycle from the snapshot's sampler instead of keeping
// the target's later one, which would let the fused tier run past them.
func TestRestoreReschedulesSampler(t *testing.T) {
	type fire struct{ at, cycle uint64 }
	sampled := func(m *Machine) *[]fire {
		got := new([]fire)
		m.SetSampler(700, func(at uint64) { *got = append(*got, fire{at, m.Cycles()}) })
		return got
	}
	src := load(t, stateWorkSrc)
	srcFires := sampled(src)
	if err := src.Run(20_000); err != nil {
		t.Fatal(err)
	}
	st, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	before := len(*srcFires)
	finishWork(t, src)
	want := (*srcFires)[before:]

	target := load(t, stateWorkSrc)
	targetFires := sampled(target)
	finishWork(t, target)
	*targetFires = nil
	if err := target.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	finishWork(t, target)
	if len(want) == 0 || !slices.Equal(*targetFires, want) {
		t.Fatalf("restored run sampled %v, source run %v", *targetFires, want)
	}
}
