package timetravel

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mcu"
)

// taskByName finds a task by its image name (task names carry a "#index"
// instance suffix).
func taskByName(sys *core.System, name string) *kernel.Task {
	for _, t := range sys.Kernel().Tasks {
		if t != nil && strings.HasPrefix(t.Name, name+"#") {
			return t
		}
	}
	return nil
}

func TestInspectorState(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	insp, err := d.Seek(100_000)
	if err != nil {
		t.Fatal(err)
	}
	m := insp.System().Machine()

	if insp.PC() != m.PC() || insp.SP() != m.SP() || insp.SREG() != m.SREG() {
		t.Error("Inspector PC/SP/SREG disagree with the landed machine")
	}
	if insp.PCSymbol() == "" {
		t.Error("PCSymbol() is empty")
	}
	regs := insp.Registers()
	for i := range regs {
		if regs[i] != m.Reg(uint8(i)) {
			t.Fatalf("Registers()[%d] = %#02x, machine has %#02x", i, regs[i], m.Reg(uint8(i)))
		}
	}
	got := insp.Mem(0x0100, 16)
	want := make([]byte, 16)
	for i := range want {
		want[i] = m.Peek(0x0100 + uint16(i))
	}
	if !bytes.Equal(got, want) {
		t.Error("Mem() disagrees with machine Peek")
	}
	if insp.Current() == nil {
		t.Error("Current() = nil mid-run")
	}
	if insp.Metrics() == nil {
		t.Error("Metrics() = nil with a kernel attached")
	}
	if br, ok := insp.Energy(); !ok || br.TotalPJ == 0 {
		t.Errorf("Energy() = (%+v, %v), want a live ledger", br, ok)
	}
	evs := insp.Events(0)
	if len(evs) == 0 {
		t.Fatal("Events(0) empty with a recorder attached")
	}
	if last5 := insp.Events(5); len(last5) != 5 || last5[4] != evs[len(evs)-1] {
		t.Error("Events(5) is not the 5-event tail")
	}
}

// TestInspectorMemStopsAtDataEnd: a window crossing the end of the data
// space returns only the bytes inside it, not the registers at address 0
// that Peek wraps around to.
func TestInspectorMemStopsAtDataEnd(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	insp, err := d.Seek(100_000)
	if err != nil {
		t.Fatal(err)
	}
	m := insp.System().Machine()
	const addr = mcu.DataSize - 4
	got := insp.Mem(addr, 36)
	if len(got) != 4 {
		t.Fatalf("Mem(%#x, 36) returned %d bytes, want the 4 inside the data space", addr, len(got))
	}
	for i, b := range got {
		if want := m.Peek(addr + uint16(i)); b != want {
			t.Errorf("Mem(%#x, 36)[%d] = %#02x, machine has %#02x", addr, i, b, want)
		}
	}
	if n := len(insp.Mem(0, mcu.DataSize)); n != mcu.DataSize {
		t.Errorf("Mem(0, DataSize) returned %d bytes, want %d", n, mcu.DataSize)
	}
	if n := len(insp.Mem(mcu.DataSize, 1)); n != 0 {
		t.Errorf("Mem(DataSize, 1) returned %d bytes, want none", n)
	}
}

func TestInspectorDecodeAddr(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	insp, err := d.Seek(100_000)
	if err != nil {
		t.Fatal(err)
	}
	tb := taskByName(insp.System(), "b")
	if tb == nil {
		t.Fatal("task b missing from the landed kernel")
	}
	pl, ph, pu := tb.Region()

	if ai := insp.DecodeAddr(pl); ai.Task != tb || ai.Kind != "heap" || ai.Logical != 0x0100 {
		t.Errorf("DecodeAddr(heap base %#04x) = %+v", pl, ai)
	}
	if ai := insp.DecodeAddr(pu - 1); ai.Task != tb || ai.Kind != "stack" || ai.Logical != 0x10FF {
		t.Errorf("DecodeAddr(stack top %#04x) = %+v", pu-1, ai)
	}
	if ai := insp.DecodeAddr(ph); ai.Task != tb || ai.Kind != "stack" {
		t.Errorf("DecodeAddr(stack base %#04x) = %+v", ph, ai)
	}
	if ai := insp.DecodeAddr(0x0040); ai.Task != nil || ai.Kind != "unmapped" || ai.Logical != 0x0040 {
		t.Errorf("DecodeAddr(io space) = %+v", ai)
	}
}

func TestInspectorStack(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	// The counter tasks spend nearly all their cycles inside the delay
	// subroutine, so most boundaries see a saved return address on the live
	// stack; probe a few landed cycles and require the walk to find it.
	found := false
	for _, c := range []uint64{100_000, 100_500, 101_000, 101_500} {
		insp, err := d.Seek(c)
		if err != nil {
			t.Fatal(err)
		}
		cur := insp.Current()
		if cur == nil {
			continue
		}
		for _, fr := range insp.Stack(0) {
			if !strings.HasPrefix(cur.Name, fr.Frame.Image+"#") || fr.Target == 0 {
				t.Fatalf("stack frame %+v does not resolve into the running task's image", fr)
			}
			if l, ok := cur.LogicalAddr(fr.Phys); !ok || l != fr.Logical {
				t.Fatalf("frame at %#04x: Logical = %#04x, task maps it to %#04x (ok=%v)",
					fr.Phys, fr.Logical, l, ok)
			}
			found = true
		}
	}
	if !found {
		t.Error("no probed boundary yielded a symbolized stack frame")
	}
}

func TestStackFramesScan(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	insp, err := d.Seek(100_000)
	if err != nil {
		t.Fatal(err)
	}
	m := insp.System().Machine()
	sym := insp.System().Kernel().Symbolizer()
	pc := insp.PC()

	// Plant a known return address (the landed PC, guaranteed in-image) in
	// scratch memory framed by zero words and verify the scan finds exactly
	// it, honoring max.
	const base = 0x0060
	for a := uint16(base); a < base+8; a++ {
		m.Poke(a, 0)
	}
	m.Poke(base+2, byte(pc>>8))
	m.Poke(base+3, byte(pc))
	frames := StackFrames(m, sym, base, base+8, 0)
	if len(frames) != 1 || frames[0].Target != pc || frames[0].Phys != base+2 {
		t.Fatalf("StackFrames = %+v, want one frame at %#04x -> %#05x", frames, base+2, pc)
	}
	if frames[0].Frame.Image == "" {
		t.Error("planted frame did not symbolize")
	}
	m.Poke(base+5, byte(pc>>8))
	m.Poke(base+6, byte(pc))
	if frames = StackFrames(m, sym, base, base+8, 1); len(frames) != 1 {
		t.Errorf("StackFrames with max=1 returned %d frames", len(frames))
	}
}

func TestSeekFirstFindsWatchpoint(t *testing.T) {
	d := ttRecord(t, Config{Checkpoints: 6, Every: 32_768})
	counterAtLeast := func(n byte) func(*Inspector) bool {
		return func(in *Inspector) bool {
			tb := taskByName(in.System(), "b")
			if tb == nil {
				return false
			}
			v, err := in.System().TaskHeapByte(tb, "n")
			return err == nil && v >= n
		}
	}

	insp, err := d.SeekFirst(counterAtLeast(60))
	if err != nil {
		t.Fatal(err)
	}

	// Linear reference: a straight checked run, stepped one boundary at a
	// time from boot until the same predicate first holds.
	ref := ttReference(t, nil, 1)
	refPred := func() bool {
		tb := taskByName(ref, "b")
		v, err := ref.TaskHeapByte(tb, "n")
		return err == nil && v >= 60
	}
	rm := ref.Machine()
	for !refPred() {
		cur := rm.Cycles()
		if err := ref.Run(cur + 1); err != nil {
			t.Fatal(err)
		}
		if rm.Cycles() == cur {
			t.Fatal("reference scan stalled before the watchpoint")
		}
	}
	if insp.Cycle() != rm.Cycles() {
		t.Errorf("SeekFirst landed on %d, linear scan says first-true is %d", insp.Cycle(), rm.Cycles())
	}
	// The landed Inspector comes from a clean Seek: identical to a straight
	// run to that cycle. (The scan reference above is no baseline — its
	// per-boundary Run calls stamp budget noise into its trace.)
	if got, want := encodeState(t, insp.System()), encodeState(t, ttReference(t, nil, insp.Cycle())); !bytes.Equal(got, want) {
		t.Error("SeekFirst landed state differs from the straight run")
	}

	if _, err := d.SeekFirst(counterAtLeast(250)); !errors.Is(err, ErrPredicate) {
		t.Errorf("impossible predicate: err = %v, want ErrPredicate", err)
	}
}

func TestFirstDivergenceRegisterFlip(t *testing.T) {
	const fireAt = 30_000
	clean, err := ttFactory()
	if err != nil {
		t.Fatal(err)
	}
	trial, err := ttFactory()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{clean, trial} {
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		sys.Machine().SetStepwise(true)
	}
	trial.Machine().SetInjector(fireAt, func(m *mcu.Machine) {
		m.SetReg(24, m.Reg(24)^0x40)
	})
	div, err := FirstDivergence(clean.Kernel(), trial.Kernel(), 20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if !div.Diverged {
		t.Fatal("register flip reported as no divergence")
	}
	if div.Cycle < fireAt || div.Cycle > fireAt+100 {
		t.Errorf("divergence at cycle %d, want within ~100 cycles of the injection at %d", div.Cycle, fireAt)
	}
	if len(div.Regs) == 0 && div.CleanPC == div.TrialPC {
		t.Errorf("divergence carries no register delta and no PC split: %+v", div)
	}
}

func TestFirstDivergenceSilentCorruption(t *testing.T) {
	const fireAt = 30_000
	clean, err := ttFactory()
	if err != nil {
		t.Fatal(err)
	}
	trial, err := ttFactory()
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []*core.System{clean, trial} {
		if err := sys.Boot(); err != nil {
			t.Fatal(err)
		}
		sys.Machine().SetStepwise(true)
	}
	// Flip the never-read pad byte next to task b's counter: pure data
	// corruption the CPU never observes.
	tb := taskByName(trial, "b")
	pl, _, _ := tb.Region()
	trial.Machine().SetInjector(fireAt, func(m *mcu.Machine) {
		m.Poke(pl+1, m.Peek(pl+1)^0xFF)
	})
	div, err := FirstDivergence(clean.Kernel(), trial.Kernel(), 20_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if div.Diverged {
		t.Fatalf("pad-byte flip diverged the trajectory: %+v", div)
	}
	if div.MemBytes != 1 || len(div.Mem) != 1 || div.Mem[0].Addr != pl+1 || div.Mem[0].Len != 1 {
		t.Errorf("memory footprint = %+v (%d bytes), want exactly the pad byte at %#04x",
			div.Mem, div.MemBytes, pl+1)
	}
}

func TestInspectorWithoutObservers(t *testing.T) {
	bare := func() (*core.System, error) {
		sys := core.NewSystem(core.WithKernelConfig(kernel.Config{InitialStack: 96}))
		prog, err := sys.CompileString("a", counterProg(50))
		if err != nil {
			return nil, err
		}
		if _, err := sys.Deploy(prog); err != nil {
			return nil, err
		}
		return sys, nil
	}
	d, err := New(bare, Config{Checkpoints: 2, Every: 16_384})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Record(80_000); err != nil {
		t.Fatal(err)
	}
	insp, err := d.Seek(40_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := insp.Energy(); ok {
		t.Error("Energy() ok with no meter attached")
	}
	if evs := insp.Events(3); evs != nil {
		t.Errorf("Events() = %d events with no recorder attached", len(evs))
	}
}
