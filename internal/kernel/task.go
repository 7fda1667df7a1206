package kernel

import (
	"fmt"

	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// TaskState is the scheduling state of a task.
type TaskState uint8

const (
	// TaskReady is runnable (including the currently running task).
	TaskReady TaskState = iota + 1
	// TaskSleeping waits until its wake cycle.
	TaskSleeping
	// TaskTerminated has been stopped (voluntarily, by fault, or by the
	// memory manager when the system could no longer accommodate it).
	TaskTerminated
)

func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskSleeping:
		return "sleeping"
	case TaskTerminated:
		return "terminated"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Task is one application instance: a naturalized program plus its memory
// region and saved CPU context ("a task running in SenSmart is analogous to
// a process", Section IV-C1).
type Task struct {
	ID   int
	Name string
	Nat  *rewriter.Naturalized

	// Base is the flash word address the naturalized program is loaded at.
	Base uint32

	// region holds the physical memory bounds: heap [PL, PH), stack
	// (PH, PU).
	region mcu.Region

	state  TaskState
	wakeAt uint64 // cycle to wake a sleeping task

	// Saved CPU context.
	regs   [32]byte
	sreg   byte
	spPhys uint16
	pc     uint32 // absolute flash word address

	// spShadow is the task's logical SP as assembled byte-wise by the
	// set-stack-pointer service (Section IV-C2).
	spShadow uint16

	// branchLeft counts down backward-branch software traps; at zero the
	// scheduler runs (1-of-256 preemption, Section IV-B).
	branchLeft uint32

	// sliceStart is the cycle at which the task's current time slice began.
	sliceStart uint64

	// runStart marks where the task's current run window began; runCycles
	// accrues completed windows (see Kernel.accrueRun).
	runStart  uint64
	runCycles uint64

	// timer3Latch holds the latched high byte for virtualized TCNT3 reads.
	timer3Latch byte

	// ctr is the task's counter block, published to the machine while the
	// task runs (Kernel.publish); it points at the fields above and below
	// and at the kernel's Stats.
	ctr mcu.TaskBlock

	// Statistics.
	Relocations  int    // relocations this task triggered
	MaxStackUsed uint16 // high-water mark of stack bytes in use
	ExitReason   string // why the task terminated, if it did
	Switches     int    // times this task was scheduled in
	// ServiceCalls counts KTRAP dispatches by service class; KernelCycles
	// accrues the kernel overhead charged on this task's behalf (service
	// overheads plus relocations it triggered).
	ServiceCalls [16]uint64
	KernelCycles uint64
}

// RunCycles returns the wall-clock cycles the task has held the CPU so far
// (completed run windows only; Kernel.Metrics accrues the open window).
func (t *Task) RunCycles() uint64 { return t.runCycles }

// State returns the task's scheduling state.
func (t *Task) State() TaskState { return t.state }

// Region returns the physical bounds of the task's memory region and heap
// top: heap is [pl, ph), stack space is [ph, pu).
func (t *Task) Region() (pl, ph, pu uint16) { return t.region.PL, t.region.PH, t.region.PU }

// StackAlloc returns the bytes of stack space currently allocated to the
// task (pu - ph).
func (t *Task) StackAlloc() uint16 { return t.region.PU - t.region.PH }

// StackUsed returns the bytes of stack currently in use.
func (t *Task) StackUsed() uint16 { return t.region.StackUsed(t.spPhys) }

// HeapSize returns the fixed heap bytes of the task's region.
func (t *Task) HeapSize() uint16 { return t.region.PH - t.region.PL }

// noteStackUse updates the stack high-water mark.
func (t *Task) noteStackUse() {
	if used := t.StackUsed(); used > t.MaxStackUsed {
		t.MaxStackUsed = used
	}
}

// logicalSPBase is one past the highest logical data address (M in the
// paper's translation formulas).
const logicalSPBase = mcu.DataSize

// logicalSP converts the task's physical SP to the logical SP the
// application sees.
func (t *Task) logicalSP() uint16 {
	return uint16(int(t.spPhys) + logicalSPBase - int(t.region.PU))
}

// LogicalSP returns the task's logical stack pointer — the SP value the
// application itself sees, per the paper's translation formulas.
func (t *Task) LogicalSP() uint16 { return t.logicalSP() }

// LogicalAddr translates a physical SRAM address inside the task's region to
// the logical address the application sees; ok is false for addresses outside
// the region (kernel-owned, I/O space, or another task's memory), which pass
// through unchanged. This is the per-task form of the kernel's watchpoint
// translation, exported so debuggers can decode any task's memory, not just
// the running one's.
func (t *Task) LogicalAddr(phys uint16) (logical uint16, ok bool) {
	switch {
	case phys >= t.region.PL && phys < t.region.PH:
		return 0x100 + (phys - t.region.PL), true
	case phys >= t.region.PH && phys < t.region.PU:
		return phys - t.region.PH + (logicalSPBase - (t.region.PU - t.region.PH)), true
	}
	return phys, false
}

// physSPFromLogical converts a logical SP back to physical.
func (t *Task) physSPFromLogical(l uint16) uint16 {
	return uint16(int(l) - logicalSPBase + int(t.region.PU))
}
