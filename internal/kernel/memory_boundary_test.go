package kernel

import (
	"testing"

	"repro/internal/mcu"
)

// TestTranslateBoundaries pins the logical→physical translation of
// Section IV-C2 at every region edge: the I/O window, both sides of the
// heap boundaries p_l and p_h, both sides of the stack window, and the
// logical SP base M (one past the highest valid stack address).
func TestTranslateBoundaries(t *testing.T) {
	// Heap [0x200, 0x240): 0x40 bytes. Stack (0x240, 0x2C0): 0x80 bytes.
	task := &Task{region: mcu.Region{PL: 0x200, PH: 0x240, PU: 0x2C0}}
	const stackLow = logicalSPBase - 0x80 // first logical stack address

	cases := []struct {
		name    string
		logical uint16
		phys    uint16
		kind    mcu.Access
	}{
		{"io low", 0x0000, 0x0000, mcu.AccessIO},
		{"io high (last identity-mapped byte)", 0x00FF, 0x00FF, mcu.AccessIO},
		{"heap base -> p_l", 0x0100, 0x0200, mcu.AccessHeap},
		{"heap top -> p_h-1", 0x013F, 0x023F, mcu.AccessHeap},
		{"one past heap faults", 0x0140, 0, mcu.AccessInvalid},
		{"one below stack window faults", stackLow - 1, 0, mcu.AccessInvalid},
		{"stack window base -> p_h", stackLow, 0x240, mcu.AccessStack},
		{"stack top -> p_u-1", logicalSPBase - 1, 0x2BF, mcu.AccessStack},
		{"logical SP base M faults", logicalSPBase, 0, mcu.AccessInvalid},
		{"beyond M faults (no wrap into neighbours)", 0xFFFF, 0, mcu.AccessInvalid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			phys, kind := task.region.Translate(tc.logical)
			if kind != tc.kind {
				t.Fatalf("translate(%#x): kind = %d, want %d", tc.logical, kind, tc.kind)
			}
			if kind != mcu.AccessInvalid && phys != tc.phys {
				t.Fatalf("translate(%#x): phys = %#x, want %#x", tc.logical, phys, tc.phys)
			}
		})
	}
}

// TestTranslateDegenerateRegions covers zero-size heap and stack areas: the
// empty window must fault rather than alias its neighbour.
func TestTranslateDegenerateRegions(t *testing.T) {
	noHeap := &Task{region: mcu.Region{PL: 0x200, PH: 0x200, PU: 0x280}}
	if _, kind := noHeap.region.Translate(0x100); kind != mcu.AccessInvalid {
		t.Errorf("zero heap: translate(0x100) kind = %d, want invalid", kind)
	}
	if phys, kind := noHeap.region.Translate(logicalSPBase - 0x80); kind != mcu.AccessStack || phys != 0x200 {
		t.Errorf("zero heap: stack base = (%#x, %d), want (0x200, stack)", phys, kind)
	}

	noStack := &Task{region: mcu.Region{PL: 0x200, PH: 0x280, PU: 0x280}}
	if _, kind := noStack.region.Translate(logicalSPBase - 1); kind != mcu.AccessInvalid {
		t.Errorf("zero stack: translate(M-1) kind = %d, want invalid", kind)
	}
	if phys, kind := noStack.region.Translate(0x17F); kind != mcu.AccessHeap || phys != 0x27F {
		t.Errorf("zero stack: heap top = (%#x, %d), want (0x27F, heap)", phys, kind)
	}
}

// redZoneKernel builds a kernel with one hand-placed region so ensureStack
// can be probed at exact headroom boundaries without running any code.
func redZoneKernel(t *testing.T) (*Kernel, *Task) {
	t.Helper()
	m := mcu.New()
	k := New(m, Config{DisableRelocation: true})
	task := &Task{Name: "probe", state: TaskReady, region: mcu.Region{PL: 0x200, PH: 0x240, PU: 0x2C0}}
	k.Tasks = append(k.Tasks, task)
	k.regions = append(k.regions, task)
	return k, task
}

// TestEnsureStackRedZoneEdge pins the 32-byte red-zone check of the
// call-site stack guard: exactly RedZone bytes of headroom pass without
// relocation; one byte less must grow the stack or kill the task.
func TestEnsureStackRedZoneEdge(t *testing.T) {
	k, task := redZoneKernel(t)
	red := k.Cfg.RedZone // defaulted to 32

	task.spPhys = task.region.PH + red // exactly RedZone bytes free
	if !k.ensureStack(task, red) {
		t.Fatalf("ensureStack with exactly %d bytes headroom failed", red)
	}
	if task.state == TaskTerminated || k.Stats.Relocations != 0 {
		t.Fatalf("exact headroom should pass untouched (state %v, relocations %d)",
			task.state, k.Stats.Relocations)
	}

	task.spPhys = task.region.PH + red - 1 // one byte short of the red zone
	if k.ensureStack(task, red) {
		t.Fatal("ensureStack passed with one byte less than the red zone and relocation disabled")
	}
	if task.state != TaskTerminated {
		t.Fatalf("task state = %v, want terminated", task.state)
	}
}

// TestEnsureStackGrowsAcrossRedZone verifies the positive side of the same
// edge: with relocation enabled and trailing free memory available, a task
// one byte short of the red zone is grown instead of killed.
func TestEnsureStackGrowsAcrossRedZone(t *testing.T) {
	m := mcu.New()
	k := New(m, Config{})
	task := &Task{Name: "probe", state: TaskReady, region: mcu.Region{PL: 0x200, PH: 0x240, PU: 0x2C0}}
	k.Tasks = append(k.Tasks, task)
	k.regions = append(k.regions, task)
	red := k.Cfg.RedZone

	task.spPhys = task.region.PH + red - 1
	if !k.ensureStack(task, red) {
		t.Fatal("ensureStack failed despite trailing free memory")
	}
	if task.state == TaskTerminated {
		t.Fatal("task terminated despite trailing free memory")
	}
	if k.Stats.Relocations != 1 {
		t.Fatalf("relocations = %d, want 1", k.Stats.Relocations)
	}
	if task.spPhys-task.region.PH < red {
		t.Fatalf("headroom after growth = %d, want >= %d", task.spPhys-task.region.PH, red)
	}
}
