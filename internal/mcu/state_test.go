package mcu

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/avr/asm"
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

// TestFlashDigestTracksImage: a capture records the machine's frozen flash
// image, whose digest (ImageDigest) is the SHA-256 of the whole flat image,
// computed at most once per image and only when a restore or an encoding
// needs it. A restore into a fork, which shares the image, computes none; a
// restore onto an equal but separately loaded image computes each image's
// digest once and succeeds; a restore onto a patched image, or of a decoded
// state whose digest differs, fails.
func TestFlashDigestTracksImage(t *testing.T) {
	m := load(t, stateWorkSrc)
	st, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	im := m.img.Load()
	if im == nil || st.img != im {
		t.Fatal("capture did not record the machine's frozen image")
	}
	child := New()
	child.AdoptImage(m)
	if child.img.Load() != im {
		t.Fatal("AdoptImage did not share the parent's image")
	}
	if err := child.RestoreState(st); err != nil {
		t.Fatalf("restore into a fork: %v", err)
	}
	if im.sum != ([32]byte{}) {
		t.Error("a restore into a fork computed the image digest")
	}

	flat := make([]byte, 2*FlashWords)
	for i := range FlashWords {
		w := m.FlashWord(uint32(i))
		flat[2*i], flat[2*i+1] = byte(w), byte(w>>8)
	}
	if st.ImageDigest() != sha256.Sum256(flat) {
		t.Fatal("image digest differs from the SHA-256 of the flat image")
	}

	twin := load(t, stateWorkSrc)
	if err := twin.RestoreState(st); err != nil {
		t.Fatalf("restore onto an equal, separately loaded image: %v", err)
	}
	tim := twin.img.Load()
	if tim == nil || tim == im || tim.sum != im.sum {
		t.Fatal("the separately loaded image was not frozen with an equal digest")
	}
	// Both digests are cached: a corrupted cache entry is believed, not
	// recomputed.
	tim.sum[0] ^= 1
	if err := twin.RestoreState(st); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore after corrupting the cached digest: %v, want ErrImageMismatch", err)
	}
	tim.sum[0] ^= 1

	decoded := *st
	decoded.img, decoded.FlashHash = nil, st.ImageDigest()
	if err := child.RestoreState(&decoded); err != nil {
		t.Errorf("restore of a decoded state: %v", err)
	}
	decoded.FlashHash[0] ^= 1
	if err := child.RestoreState(&decoded); !errors.Is(err, ErrImageMismatch) {
		t.Errorf("restore of a decoded state of another image: %v, want ErrImageMismatch", err)
	}

	w := m.FlashWord(5)
	if err := m.LoadFlash(5, []uint16{w ^ 1}); err != nil {
		t.Fatal(err)
	}
	if m.img.Load() != nil {
		t.Fatal("LoadFlash kept the frozen image")
	}
	if im.flash[0].v[5] != w || child.FlashWord(5) != w {
		t.Fatal("LoadFlash wrote into the frozen image")
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
}

// uartPendingSrc sends one byte and sleeps with interrupts off: the sleep
// runs to the byte's completion, then faults with no event left to wake it.
const uartPendingSrc = `
    ldi r16, 0x41
    out UDR0, r16
    sleep
`

// TestRestoreRejectsBadGeometry: a snapshot that does not fit the target (a
// truncated data segment, a mismatched sampler interval) or whose device
// state no run can produce must be refused before the machine changes. The
// device rows edit a snapshot taken with a UART byte in flight until cycle
// 1282: restored with a next-event cycle past it, the machine would sleep
// with no event scheduled and never send the byte.
func TestRestoreRejectsBadGeometry(t *testing.T) {
	work, err := load(t, stateWorkSrc).CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	src := load(t, uartPendingSrc)
	for range 2 {
		if err := src.Step(); err != nil {
			t.Fatal(err)
		}
	}
	pending, err := src.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	if pending.Dev.NextEvent != 2+UARTByteCycles {
		t.Fatalf("snapshot's next event at cycle %d, want %d", pending.Dev.NextEvent, 2+UARTByteCycles)
	}
	m := load(t, uartPendingSrc)
	if err := m.RestoreState(pending); err != nil {
		t.Fatal(err)
	}
	var f *Fault
	if err := m.Run(10_000); !errors.As(err, &f) || f.Kind != FaultDeadSleep {
		t.Fatalf("faithful restore: %v, want a dead sleep", err)
	}
	if got := string(m.UARTOutput()); got != "A" || m.Cycles() != 2+UARTByteCycles {
		t.Fatalf("faithful restore sent %q by cycle %d, want \"A\" by cycle %d", got, m.Cycles(), 2+UARTByteCycles)
	}

	cases := []struct {
		name    string
		src     string
		st      *MachineState
		sampled bool
		edit    func(st *MachineState)
		want    error
	}{
		{"truncated data segment", stateWorkSrc, work, false,
			func(st *MachineState) { st.Data = st.Data[:100] }, ErrSnapshotDataSize},
		{"sampler interval", stateWorkSrc, work, true,
			func(*MachineState) {}, ErrSamplerMismatch},
		{"next event past the pending byte", uartPendingSrc, pending, false,
			func(st *MachineState) { st.Dev.NextEvent = ^uint64(0) }, ErrDeviceState},
		{"next event before the pending byte", uartPendingSrc, pending, false,
			func(st *MachineState) { st.Dev.NextEvent-- }, ErrDeviceState},
		{"Timer0 count above 255", uartPendingSrc, pending, false,
			func(st *MachineState) { st.Dev.T0BaseCount = 256 }, ErrDeviceState},
		{"Timer0 prescaler not a TCCR0 divisor", uartPendingSrc, pending, false,
			func(st *MachineState) { st.Dev.T0Prescale = 3 }, ErrDeviceState},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := *tc.st
			tc.edit(&st)
			m := load(t, tc.src)
			if tc.sampled {
				m.SetSampler(4096, func(uint64) {})
			}
			before, err := m.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RestoreState(&st); !errors.Is(err, tc.want) {
				t.Fatalf("restore: %v, want %v", err, tc.want)
			}
			if after, _ := m.CaptureState(); !reflect.DeepEqual(after, before) {
				t.Error("a refused restore changed the machine")
			}
		})
	}
}

// TestAdoptImageCopyOnWrite: after AdoptImage the two machines share every
// flash and micro-op page and the translated blocks; a LoadFlash on the
// child must copy only the page it writes, leave the parent's words,
// micro-ops and blocks untouched, and many children must be able to adopt
// one translated parent and run concurrently on its blocks.
func TestAdoptImageCopyOnWrite(t *testing.T) {
	parent := load(t, stateWorkSrc)
	parent.SetTranslation(1)
	wantUART, wantRadio, wantCycles, wantInsts := finishWork(t, parent)
	parentXL := parent.TranslationStats()
	if parentXL.Blocks == 0 {
		t.Fatalf("parent run translated no blocks: %+v", parentXL)
	}

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
	if st := parent.TranslationStats(); st != parentXL {
		t.Errorf("LoadFlash on the child changed the parent's blocks: %+v, want %+v", st, parentXL)
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
		xl     TranslationStats
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
			r.uart, r.radio, r.cycles, r.insts, r.data, r.xl =
				m.UARTOutput(), m.RadioOutput(), m.cycle, m.insts, m.data, m.TranslationStats()
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
		// The parent translated every leader of this very run, so its
		// adopters run on inherited blocks and build none.
		if r.xl.Built != 0 || r.xl.Blocks != parentXL.Blocks || r.xl.FusedDispatches == 0 {
			t.Errorf("adopter %d translation %+v, want the parent's %d blocks and none built",
				i, r.xl, parentXL.Blocks)
		}
	}
	if parent.flash[0] != parentFlash0 || parent.flash[0].v != flash0 || parent.uops[0].v != uops0 {
		t.Error("concurrent adopters changed the parent's page 0")
	}
	if st := parent.TranslationStats(); st != parentXL {
		t.Errorf("concurrent adopters changed the parent's blocks: %+v, want %+v", st, parentXL)
	}
}

// TestAdoptImageIsolatesPatches: after AdoptImage parent and child share
// their translated blocks, but a LoadFlash in either kills only its own
// overlapping blocks: the patched machine runs the new code, the other one
// keeps running the old code on the blocks it has — in both directions.
func TestAdoptImageIsolatesPatches(t *testing.T) {
	const src = `
main:
    ldi r16, 10
    rjmp second
second:
    ldi r17, 20
    break
`
	patch, err := asm.Assemble("patch", "ldi r17, 99")
	if err != nil {
		t.Fatal(err)
	}
	for _, patchParent := range []bool{false, true} {
		t.Run(fmt.Sprintf("patch parent %v", patchParent), func(t *testing.T) {
			parent := load(t, src)
			parent.SetTranslation(1)
			parent.SetSP(0x10FF)
			runUntilBreak(t, parent, 100_000)
			child := New()
			child.SetTranslation(1)
			child.AdoptImage(parent)
			if st := child.TranslationStats(); st.Blocks != 2 || st.Built != 0 {
				t.Fatalf("child after AdoptImage: %+v, want the parent's 2 blocks and none built", st)
			}
			patched, kept := child, parent
			if patchParent {
				patched, kept = parent, child
			}
			keptXL := kept.TranslationStats()
			if err := patched.LoadFlash(2, patch.Words); err != nil {
				t.Fatal(err)
			}
			if st := patched.TranslationStats(); st.Blocks != 1 || st.Invalidations != 1 {
				t.Errorf("patched machine %+v, want only the block at the patch killed", st)
			}
			if st := kept.TranslationStats(); st != keptXL {
				t.Errorf("the patch changed the other machine's blocks: %+v, want %+v", st, keptXL)
			}
			reRun(t, patched)
			reRun(t, kept)
			if got := patched.Reg(17); got != 99 {
				t.Errorf("patched machine: r17 = %d, want 99 (the new code)", got)
			}
			if got := kept.Reg(17); got != 20 {
				t.Errorf("other machine: r17 = %d, want 20 (the old code)", got)
			}
			if st := kept.TranslationStats(); st.Built != keptXL.Built || st.Blocks != 2 {
				t.Errorf("other machine %+v, want it to keep running its %d blocks", st, keptXL.Blocks)
			}
		})
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
