package kernel

import (
	"fmt"

	"repro/internal/rewriter"
)

// TaskRecord is the serializable state of one Task. Identity fields (ID,
// Name, Base) double as validation: a restore target must have admitted the
// same programs in the same order, so records are matched positionally and
// cross-checked.
type TaskRecord struct {
	ID   int
	Name string
	Base uint32

	PL, PH, PU uint16
	State      uint8
	WakeAt     uint64

	Regs    [32]byte
	SREG    byte
	SPPhys  uint16
	PC      uint32
	SPShad  uint16
	BrLeft  uint32
	SliceAt uint64
	RunAt   uint64
	RunCyc  uint64
	T3Latch byte

	Relocations  int
	MaxStackUsed uint16
	ExitReason   string
	Switches     int
	ServiceCalls [numClasses]uint64
	KernelCycles uint64
}

// KernelState is the complete serializable state of a Kernel: scheduler
// position, the task table with per-task contexts and region geometry, the
// cycle ledgers, and the fault log. Static structure (admitted programs,
// trap table, symbolizer) is not carried — it is rebuilt by deploying the
// same programs before restoring, and cross-checked here.
type KernelState struct {
	Stats   Stats
	Cur     int
	Booted  bool
	Service uint8

	FlashTop uint32
	AppBase  uint16
	AppEnd   uint16

	Tasks    []TaskRecord
	Regions  []int // task IDs in region-address order
	FaultLog []FaultRecord
}

// CaptureState snapshots the kernel's state. It is read-only: in particular
// it serializes the open run-window (runStart/runCycles) raw rather than
// folding it the way Metrics() does, so capturing mid-run never perturbs the
// ledgers.
func (k *Kernel) CaptureState() *KernelState {
	st := &KernelState{
		Stats:    k.Stats,
		Cur:      k.cur,
		Booted:   k.booted,
		Service:  uint8(k.curService),
		FlashTop: k.flashTop,
		AppBase:  k.appBase,
		AppEnd:   k.appEnd,
		Tasks:    make([]TaskRecord, len(k.Tasks)),
		Regions:  make([]int, len(k.regions)),
		FaultLog: append([]FaultRecord(nil), k.FaultLog...),
	}
	for i, t := range k.Tasks {
		st.Tasks[i] = TaskRecord{
			ID:           t.ID,
			Name:         t.Name,
			Base:         t.Base,
			PL:           t.region.PL,
			PH:           t.region.PH,
			PU:           t.region.PU,
			State:        uint8(t.state),
			WakeAt:       t.wakeAt,
			Regs:         t.regs,
			SREG:         t.sreg,
			SPPhys:       t.spPhys,
			PC:           t.pc,
			SPShad:       t.spShadow,
			BrLeft:       t.branchLeft,
			SliceAt:      t.sliceStart,
			RunAt:        t.runStart,
			RunCyc:       t.runCycles,
			T3Latch:      t.timer3Latch,
			Relocations:  t.Relocations,
			MaxStackUsed: t.MaxStackUsed,
			ExitReason:   t.ExitReason,
			Switches:     t.Switches,
			ServiceCalls: t.ServiceCalls,
			KernelCycles: t.KernelCycles,
		}
	}
	for i, r := range k.regions {
		st.Regions[i] = r.ID
	}
	return st
}

// RestoreState applies a captured state to k, which must have admitted the
// same programs in the same order as the snapshot's source (same task names
// and load addresses) but must not have booted: restore replaces Boot, and
// the caller resumes with Run as usual. Region geometry and the saved SPs of
// the tasks that are not running are checked before anything is applied.
// Machine state (registers, SRAM, guard) is restored separately via
// mcu.Machine.RestoreState.
func (k *Kernel) RestoreState(st *KernelState) error {
	if k.booted {
		return fmt.Errorf("kernel: cannot restore onto a booted kernel")
	}
	if !st.Booted {
		return fmt.Errorf("kernel: snapshot predates boot")
	}
	if len(st.Tasks) != len(k.Tasks) {
		return fmt.Errorf("kernel: snapshot has %d tasks, target admitted %d",
			len(st.Tasks), len(k.Tasks))
	}
	if st.FlashTop != k.flashTop || st.AppBase != k.appBase || st.AppEnd != k.appEnd {
		return fmt.Errorf("kernel: snapshot memory layout (flash %#x app %#x..%#x) differs from target (flash %#x app %#x..%#x)",
			st.FlashTop, st.AppBase, st.AppEnd, k.flashTop, k.appBase, k.appEnd)
	}
	if st.Cur < -1 || st.Cur >= len(k.Tasks) {
		return fmt.Errorf("kernel: snapshot current-task index %d out of range", st.Cur)
	}
	byID := make(map[int]int, len(k.Tasks))
	for i, t := range k.Tasks {
		r := &st.Tasks[i]
		if r.ID != t.ID || r.Name != t.Name || r.Base != t.Base {
			return fmt.Errorf("kernel: snapshot task %d is %q@%#x, target admitted %q@%#x",
				i, r.Name, r.Base, t.Name, t.Base)
		}
		byID[t.ID] = i
	}
	// Section IV-C's geometry: listed regions lie inside the app area in
	// address order, each p_l <= p_h <= p_u, none overlapping the next.
	regions := make([]*Task, len(st.Regions))
	listed := make(map[int]bool, len(st.Regions))
	var prev *TaskRecord
	for i, id := range st.Regions {
		ti, ok := byID[id]
		if !ok {
			return fmt.Errorf("kernel: snapshot region list names unknown task %d", id)
		}
		r := &st.Tasks[ti]
		switch {
		case listed[id]:
			return fmt.Errorf("kernel: snapshot lists task %q's region twice", r.Name)
		case r.PL < st.AppBase || r.PU > st.AppEnd:
			return fmt.Errorf("kernel: snapshot task %q's region %#x..%#x lies outside the app area %#x..%#x",
				r.Name, r.PL, r.PU, st.AppBase, st.AppEnd)
		case r.PL > r.PH || r.PH > r.PU:
			return fmt.Errorf("kernel: snapshot task %q's region has p_l %#x, p_h %#x, p_u %#x, want p_l <= p_h <= p_u",
				r.Name, r.PL, r.PH, r.PU)
		case prev != nil && r.PL < prev.PL:
			return fmt.Errorf("kernel: snapshot task %q's region at %#x is listed after task %q's at %#x",
				r.Name, r.PL, prev.Name, prev.PL)
		case prev != nil && r.PL < prev.PU:
			return fmt.Errorf("kernel: snapshot task %q's region at %#x overlaps task %q's, which ends at %#x",
				r.Name, r.PL, prev.Name, prev.PU)
		}
		listed[id] = true
		prev = r
		regions[i] = k.Tasks[ti]
	}
	// Every task is ready, sleeping or terminated, and its backward-branch
	// countdown lies in 1..BranchInterval: the slice check resets it at
	// zero, so a zero would wrap and never preempt again. A live task's
	// saved SP lies in its stack area: from p_h-1 (full) up to p_u-1
	// (empty). The current task's saved SP is stale; the machine holds its
	// live one.
	for i := range st.Tasks {
		r := &st.Tasks[i]
		switch TaskState(r.State) {
		case TaskReady, TaskSleeping, TaskTerminated:
		default:
			return fmt.Errorf("kernel: snapshot task %q has state %d, want ready, sleeping or terminated",
				r.Name, r.State)
		}
		if r.BrLeft == 0 || r.BrLeft > k.Cfg.BranchInterval {
			return fmt.Errorf("kernel: snapshot task %q's branch countdown %d lies outside 1..%d",
				r.Name, r.BrLeft, k.Cfg.BranchInterval)
		}
		if i == st.Cur || TaskState(r.State) == TaskTerminated {
			continue
		}
		if int(r.SPPhys) < int(r.PH)-1 || r.SPPhys >= r.PU {
			return fmt.Errorf("kernel: snapshot task %q's saved SP %#x lies outside its stack %#x..%#x",
				r.Name, r.SPPhys, int(r.PH)-1, r.PU)
		}
	}
	for i, t := range k.Tasks {
		r := &st.Tasks[i]
		t.region.PL, t.region.PH, t.region.PU = r.PL, r.PH, r.PU
		t.state = TaskState(r.State)
		t.wakeAt = r.WakeAt
		t.regs = r.Regs
		t.sreg = r.SREG
		t.spPhys = r.SPPhys
		t.pc = r.PC
		t.spShadow = r.SPShad
		t.branchLeft = r.BrLeft
		t.sliceStart = r.SliceAt
		t.runStart = r.RunAt
		t.runCycles = r.RunCyc
		t.timer3Latch = r.T3Latch
		t.Relocations = r.Relocations
		t.MaxStackUsed = r.MaxStackUsed
		t.ExitReason = r.ExitReason
		t.Switches = r.Switches
		t.ServiceCalls = r.ServiceCalls
		t.KernelCycles = r.KernelCycles
		if k.prof != nil {
			k.prof.UpdateRegion(int32(t.ID), t.region.PL, t.region.PH, t.region.PU)
		}
	}
	k.regions = regions
	k.cur = st.Cur
	k.Stats = st.Stats
	k.curService = rewriter.Class(st.Service)
	k.FaultLog = append([]FaultRecord(nil), st.FaultLog...)
	k.booted = true
	k.publish()
	return nil
}
