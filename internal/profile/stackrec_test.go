package profile

import (
	"bytes"
	"strings"
	"testing"
)

func TestStackSamplingAndPeak(t *testing.T) {
	p := New(Options{StackInterval: 10, StackRing: 8})
	p.RegisterTask(1, "app#0", 0x100, 0x110, 0x150)
	p.SetContext(1, 0x100, 0x110, 0x150)

	// Each OnInstr advances 10 cycles, so every instruction samples.
	sps := []uint16{0x14f, 0x140, 0x130, 0x14f}
	for _, sp := range sps {
		p.OnInstr(0, sp, 10)
	}
	samples, relocs, peak := p.StackTimeline(1)
	if len(samples) != len(sps) {
		t.Fatalf("samples = %d, want %d", len(samples), len(sps))
	}
	// pu-1 - sp: 0x14f -> 0, 0x140 -> 15, 0x130 -> 31.
	if samples[0].Used != 0 || samples[1].Used != 15 || samples[2].Used != 31 {
		t.Errorf("depths = %d,%d,%d", samples[0].Used, samples[1].Used, samples[2].Used)
	}
	if peak != 31 {
		t.Errorf("peak = %d, want 31", peak)
	}
	if len(relocs) != 0 {
		t.Errorf("unexpected relocs: %v", relocs)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatalf("samples out of order at %d: %v", i, samples)
		}
	}
}

func TestStackRingWrapsChronologically(t *testing.T) {
	p := New(Options{StackInterval: 1, StackRing: 4})
	p.RegisterTask(1, "app#0", 0x100, 0x110, 0x150)
	p.SetContext(1, 0x100, 0x110, 0x150)

	for i := 0; i < 10; i++ {
		p.OnInstr(0, uint16(0x14f-i), 1)
	}
	samples, _, peak := p.StackTimeline(1)
	if len(samples) != 4 {
		t.Fatalf("retained = %d, want ring size 4", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatalf("wrapped ring out of order: %+v", samples)
		}
	}
	if samples[len(samples)-1].Cycle != p.TotalCycles() {
		t.Errorf("last sample at %d, clock at %d", samples[len(samples)-1].Cycle, p.TotalCycles())
	}
	// The peak survives even though early deep samples were overwritten.
	if peak != 9 {
		t.Errorf("peak = %d, want 9", peak)
	}
}

func TestSPAboveRegionReadsAsZeroDepth(t *testing.T) {
	p := New(Options{StackInterval: 1, StackRing: 4})
	p.RegisterTask(1, "app#0", 0x100, 0x110, 0x150)
	p.SetContext(1, 0x100, 0x110, 0x150)
	p.OnInstr(0, 0x150, 1) // SP at region top: empty stack
	samples, _, peak := p.StackTimeline(1)
	if len(samples) != 1 || samples[0].Used != 0 || peak != 0 {
		t.Errorf("samples = %+v, peak = %d", samples, peak)
	}
}

func TestStackTimelineUnknownTask(t *testing.T) {
	p := New(Options{})
	samples, relocs, peak := p.StackTimeline(42)
	if samples != nil || relocs != nil || peak != 0 {
		t.Errorf("unknown task: %v %v %d", samples, relocs, peak)
	}
}

func TestWriteStackTimeline(t *testing.T) {
	p := New(Options{StackInterval: 10, StackRing: 8})
	p.RegisterTask(1, "app#0", 0x100, 0x110, 0x150)
	p.RegisterTask(2, "quiet", 0x150, 0x160, 0x1a0) // never runs: no rows
	p.SetContext(1, 0x100, 0x110, 0x150)
	p.OnInstr(0, 0x140, 10)
	p.OnReloc(1, 4, 64, 30)

	var buf bytes.Buffer
	if err := p.WriteStackTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "kind,task,cycle,sp,used,granted,cost" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "peak,app#0,0,0,15,0,0") {
		t.Errorf("missing peak row:\n%s", out)
	}
	if !strings.Contains(out, "reloc,app#0,40,0,0,64,30") {
		t.Errorf("missing reloc row:\n%s", out)
	}
	if !strings.Contains(out, "sample,app#0,10,0x140,15,0,0") {
		t.Errorf("missing sample row:\n%s", out)
	}
	if strings.Contains(out, "quiet") {
		t.Errorf("idle task should be omitted:\n%s", out)
	}
}

// TestRestoreStateChecksStackRing: a restore refuses a stack ring holding
// more samples than its capacity, or a cursor the ring cannot have, instead
// of leaving the next sample to index past the ring. Captured rings, filling
// or wrapped, restore and keep sampling.
func TestRestoreStateChecksStackRing(t *testing.T) {
	opts := Options{StackInterval: 1, StackRing: 4}
	capture := func(samples int) *ProfilerState {
		p := New(opts)
		p.RegisterTask(1, "app#0", 0x100, 0x110, 0x150)
		p.SetContext(1, 0x100, 0x110, 0x150)
		for i := 0; i < samples; i++ {
			p.OnInstr(0, uint16(0x14f-i), 1)
		}
		return p.CaptureState()
	}
	for _, tc := range []struct {
		name    string
		samples int
		doctor  func(ts *TaskProfState)
		ok      bool
	}{
		{"filling", 2, func(*TaskProfState) {}, true},
		{"wrapped", 6, func(*TaskProfState) {}, true},
		{"cursor past a full ring", 6, func(ts *TaskProfState) { ts.RingPos = 255 }, false},
		{"cursor at capacity", 6, func(ts *TaskProfState) { ts.RingPos = 4 }, false},
		{"negative cursor", 6, func(ts *TaskProfState) { ts.RingPos = -1 }, false},
		{"cursor in a filling ring", 2, func(ts *TaskProfState) { ts.RingPos = 1 }, false},
		{"filling ring marked wrapped", 2, func(ts *TaskProfState) { ts.Wrapped = true }, false},
		{"more samples than the ring", 6, func(ts *TaskProfState) { ts.Ring = append(ts.Ring, ts.Ring[0]) }, false},
	} {
		st := capture(tc.samples)
		for i := range st.Tasks {
			if st.Tasks[i].ID == 1 {
				tc.doctor(&st.Tasks[i])
			}
		}
		p := New(opts)
		err := p.RestoreState(st)
		if (err == nil) != tc.ok {
			t.Errorf("%s: restore error %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err == nil {
			for i := 0; i < 6; i++ {
				p.OnInstr(0, 0x140, 1)
			}
			if samples, _, _ := p.StackTimeline(1); len(samples) != 4 {
				t.Errorf("%s: %d samples retained after restoring and sampling, want 4", tc.name, len(samples))
			}
		}
	}
}
