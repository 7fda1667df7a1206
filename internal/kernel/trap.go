package kernel

import (
	"fmt"

	"repro/internal/avr"
	"repro/internal/ioregs"
	"repro/internal/mcu"
	"repro/internal/rewriter"
	"repro/internal/trace"
)

// handleTrap is the kernel entry point: it validates the KTRAP escape,
// brackets the dispatch with trap enter/exit trace events, and accounts the
// cycles the service charged.
func (k *Kernel) handleTrap(m *mcu.Machine, id uint16) error {
	t := k.Current()
	if int(id) >= len(k.traps) {
		if t == nil {
			return fmt.Errorf("kernel: unknown trap id %d at pc=%#x", id, m.PC())
		}
		// Corrupted control flow decoded a stray BREAK whose operand word is
		// no assigned trap id: treat it like any other invalid instruction
		// and terminate only the offending task.
		reason := fmt.Sprintf("invalid trap id %d at pc %#x in %s", id, m.PC(), k.sym.Name(m.PC()))
		k.recordFault(t, "invalid trap id", m.PC(), reason)
		k.terminate(t, reason)
		return nil
	}
	if t == nil {
		return fmt.Errorf("kernel: trap %d with no current task", id)
	}
	ref := &k.traps[id]
	if ref.Base != t.Base {
		// The task jumped into another program's code: isolation violation.
		reason := "control transfer into foreign program"
		k.recordFault(t, "foreign program", m.PC(), reason)
		k.terminate(t, reason)
		return nil
	}
	// The hardware SP is authoritative while the task runs natively.
	t.ctr.Enter(ref.Class, m.SP())

	class := rewriter.Class(ref.Class)
	k.curService = class
	r := k.Cfg.Trace
	if r == nil {
		err := k.dispatch(t, id, ref)
		k.curService = 0
		return err
	}
	site := m.PC()
	back := uint64(0)
	if class == rewriter.ClassBranch && ref.Back {
		back = 1
	}
	r.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindTrapEnter,
		Task: int32(t.ID), Arg: uint64(class), Arg2: back, PC: site})
	before := k.Stats.ServiceCycles[class]
	err := k.dispatch(t, id, ref)
	k.curService = 0
	// Arg2 is the cycles the service proper charged; relocation, switch
	// and idle cycles inside the window carry their own events, so the
	// enter-to-exit clock delta decomposes exactly (see trace_cost_test).
	r.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindTrapExit,
		Task: int32(t.ID), Arg: uint64(class),
		Arg2: k.Stats.ServiceCycles[class] - before, PC: site})
	return err
}

// dispatch routes one validated trap to its service and charges the Table II
// cycle cost. On return the machine PC points at the continuation the
// service chose. Everything a service needs comes from the trap's
// descriptor: continuation PCs, the precomputed charge, and the original
// instruction's operands (Group[0], Addr).
func (k *Kernel) dispatch(t *Task, id uint16, ref *mcu.TrapDesc) error {
	m := k.M
	orig := ref.Group[0]
	switch class := rewriter.Class(ref.Class); class {
	case rewriter.ClassBranch:
		k.serviceBranch(t, ref)
	case rewriter.ClassCall:
		k.charge(t, ref)
		if !k.ensureStack(t, k.Cfg.RedZone+2) {
			return nil
		}
		m.PushWord(uint16(ref.Next))
		t.spPhys = m.SP()
		m.SetPC(ref.Target)
	case rewriter.ClassIndirectCall:
		k.charge(t, ref)
		if !k.ensureStack(t, k.Cfg.RedZone+2) {
			return nil
		}
		z := m.RegPair(avr.RegZ)
		m.PushWord(uint16(ref.Next))
		t.spPhys = m.SP()
		m.SetPC(ref.Base + t.Nat.Shift.Map(uint32(z)))
	case rewriter.ClassIndirectJump:
		k.charge(t, ref)
		z := m.RegPair(avr.RegZ)
		m.SetPC(ref.Base + t.Nat.Shift.Map(uint32(z)))
	case rewriter.ClassDirectIO:
		k.charge(t, ref)
		k.watchCheck(t, ref.Addr, !orig.Load())
		if orig.Load() {
			m.SetReg(orig.Reg, m.ReadBus(ref.Addr))
		} else {
			m.WriteBus(ref.Addr, m.Reg(orig.Reg))
		}
		m.SetPC(ref.Next)
	case rewriter.ClassReservedIO:
		k.charge(t, ref)
		k.watchCheck(t, ref.Addr, !orig.Load())
		if orig.Load() {
			// Writes to the kernel-reserved clock are discarded.
			m.SetReg(orig.Reg, k.virtualTimer3Read(t, ref.Addr))
		}
		m.SetPC(ref.Next)
	case rewriter.ClassDirectMem:
		k.charge(t, ref)
		if !k.serviceDirectMem(t, ref) {
			return nil
		}
		m.SetPC(ref.Next)
	case rewriter.ClassIndirectMem:
		if !k.serviceIndirectMem(t, ref) {
			return nil
		}
		m.SetPC(ref.Next)
	case rewriter.ClassSPRead:
		k.charge(t, ref)
		logical := t.logicalSP()
		v := byte(logical)
		if ref.Addr == ioregs.SPH {
			v = byte(logical >> 8)
		}
		m.SetReg(orig.Reg, v)
		m.SetPC(ref.Next)
	case rewriter.ClassSPWrite:
		k.charge(t, ref)
		if !k.serviceSPWrite(t, orig.Reg, ref.Addr) {
			return nil
		}
		m.SetPC(ref.Next)
	case rewriter.ClassSleep:
		k.charge(t, ref)
		t.state = TaskSleeping
		t.wakeAt = m.Cycles() + k.Cfg.SleepQuantum
		if k.Cfg.Trace != nil {
			k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindSleep,
				Task: int32(t.ID), Arg: t.wakeAt})
		}
		k.schedule(ref.Next)
	case rewriter.ClassLpm:
		k.charge(t, ref)
		k.serviceLpm(t, orig, ref.Base)
		m.SetPC(ref.Next)
	case rewriter.ClassExit:
		k.terminate(t, "exited")
	default:
		return fmt.Errorf("kernel: unhandled service class %v", class)
	}
	return nil
}

// overheads is the Table II overhead each service class is booked with;
// an indirect group's depends on its length and where it lands (describe).
var overheads = [numClasses]int{
	rewriter.ClassBranch:       CostBranchTrap,
	rewriter.ClassCall:         CostStackCheck,
	rewriter.ClassIndirectCall: CostProgMem + CostStackCheck,
	rewriter.ClassIndirectJump: CostProgMem,
	rewriter.ClassLpm:          CostProgMem,
	rewriter.ClassDirectIO:     CostDirectIO,
	rewriter.ClassReservedIO:   CostReservedIO,
	rewriter.ClassDirectMem:    CostDirectMem,
	rewriter.ClassSPRead:       CostGetSP,
	rewriter.ClassSPWrite:      CostSetSP,
	rewriter.ClassSleep:        CostSleep,
}

// split is the rule every service is charged by: the clock advances by the
// original instructions' own cycles plus the kernel overhead, minus the one
// cycle the KTRAP fetch already cost.
func split(baseCycles, overhead int) uint64 {
	return uint64(max(baseCycles+overhead-1, 0))
}

// A descriptor holds every access of the longest group the rewriter forms
// (the array length goes negative, failing the build, if it cannot).
var _ [len(mcu.TrapDesc{}.Group) - rewriter.MaxGroup]struct{}

// describe builds the descriptor of patch p loaded at base: continuation
// and target, branch evaluation, the precomputed charge, and the original
// accesses. The fused tier serves branches, calls, direct SRAM accesses,
// and indirect groups under the rewriter's grouping rule (classifyUnit):
// one shared pointer, loaded into by the last access alone, so every
// address follows from the pointer before the group runs.
func describe(p *rewriter.Patch, base uint32) mcu.TrapDesc {
	d := mcu.TrapDesc{Base: base, Next: base + p.NatNext, Target: base + p.NatTarget,
		Addr: uint16(p.Orig.Imm), Class: uint8(p.Class), Back: p.Backward}
	switch p.Orig.Op {
	case avr.OpBrbs:
		d.Br, d.Mask = mcu.BrSet, 1<<(p.Orig.Src&7)
	case avr.OpBrbc:
		d.Br, d.Mask = mcu.BrClr, 1<<(p.Orig.Src&7)
	}
	baseCycles, over := 0, overheads[p.Class]
	d.N = uint8(len(p.Group))
	ptr, _ := p.Orig.PointerReg()
	shared := true
	for i, in := range p.Group {
		baseCycles += in.Op.BaseCycles()
		d.Group[i] = mcu.Member{Op: in.Op, Reg: in.Dst, Disp: uint8(in.Imm)}
		if pi, _ := in.PointerReg(); pi != ptr || i < len(p.Group)-1 && in.IsLoad() && in.Dst|1 == ptr|1 {
			shared = false
		}
	}
	switch p.Class {
	case rewriter.ClassBranch:
		d.Serve = mcu.ServeBranch
	case rewriter.ClassCall:
		d.Serve = mcu.ServeCall
	case rewriter.ClassDirectMem:
		d.Serve = mcu.ServeDirectMem
	case rewriter.ClassIndirectMem:
		over = CostIndHeap + CostGroupExtra*(len(p.Group)-1)
		d.StackExtra = CostIndStack - CostIndHeap
		if shared {
			d.Serve = mcu.ServeIndirectMem
		}
	}
	d.Charge, d.Overhead = uint16(split(baseCycles, over)), uint16(over)
	return d
}

// charge books a fixed-cost service from its descriptor.
func (k *Kernel) charge(t *Task, ref *mcu.TrapDesc) {
	k.book(t, rewriter.Class(ref.Class), uint64(ref.Charge), uint64(ref.Overhead))
}

// book accounts a service: charged cycles go on the clock and the class's
// in-window ledger (ServiceCycles), the Table II overhead alone on
// ServiceOverhead and on the task, attributing kernel time to who caused it.
func (k *Kernel) book(t *Task, class rewriter.Class, charged, overhead uint64) {
	t.ctr.Book(k.M, uint8(class), charged, overhead)
	if k.prof != nil {
		// Charges happen before the service sets the continuation PC, so
		// the machine PC is still the trap site.
		k.prof.OnService(int32(t.ID), class, k.M.PC(), overhead, charged)
	}
}

// serviceBranch implements the patched-branch service: evaluate the branch
// against live flags, count backward branches toward the 1-of-256 software
// trap, and preempt when the time slice has expired (Section IV-B). The
// fused tier serves every branch that does not reach the slice check
// itself, exactly as here.
func (k *Kernel) serviceBranch(t *Task, ref *mcu.TrapDesc) {
	m := k.M
	k.charge(t, ref)
	next := ref.Next
	if ref.Taken(m.SREG()) {
		next = ref.Target
		// The branch-taken penalty, as on hardware: native cycles, no
		// kernel overhead.
		t.ctr.Book(m, ref.Class, 1, 0)
		if k.prof != nil {
			k.prof.OnAppExtra(int32(t.ID), m.PC(), 1)
		}
	}
	if ref.Back {
		k.Stats.BranchTraps++
		if t.branchLeft--; t.branchLeft == 0 {
			t.branchLeft = k.Cfg.BranchInterval
			k.Stats.SliceChecks++
			if k.Cfg.Trace != nil {
				k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(),
					Kind: trace.KindSliceCheck, Task: int32(t.ID)})
			}
			if m.Cycles()-t.sliceStart >= k.Cfg.SliceCycles {
				k.Stats.Preemptions++
				if k.Cfg.Trace != nil {
					k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(),
						Kind: trace.KindPreempt, Task: int32(t.ID)})
				}
				k.schedule(next)
				return
			}
		}
	}
	m.SetPC(next)
}

// repeatTrap is the kernel's mcu.TrapRepeater. The fused tier calls it when
// a device-poll loop closed by branch trap id has just been serviced and has
// landed back on the loop's leader; it books up to n further services of
// that branch exactly as serviceBranch books each one — ServiceCalls (kernel
// and task), ServiceCycles, ServiceOverhead, the task's KernelCycles,
// BranchTraps and the slice countdown — and returns how many it booked. A
// backward branch repeats at most branchLeft-1 times, so the service that
// runs the slice check still goes through handleTrap. It declines every
// other class, a trap outside the current task's program, the service
// right after a switch to the current task (the measured iteration carries
// the switch's cycles), and any run with a recorder (trap enter/exit events
// are per trap) or a profiler attached.
func (k *Kernel) repeatTrap(m *mcu.Machine, id uint16, n uint64) uint64 {
	t := k.Current()
	if t == nil || k.Cfg.Trace != nil || k.prof != nil || int(id) >= len(k.traps) {
		return 0
	}
	ref := &k.traps[id]
	class := rewriter.Class(ref.Class)
	if class != rewriter.ClassBranch || ref.Base != t.Base || t.sliceStart == m.Cycles() {
		return 0
	}
	if ref.Back {
		n = min(n, uint64(t.branchLeft-1))
		k.Stats.BranchTraps += n
		t.branchLeft -= uint32(n)
	}
	charged := uint64(ref.Charge)
	if ref.Taken(m.SREG()) {
		charged++
	}
	k.Stats.ServiceCalls[class] += n
	t.ServiceCalls[class] += n
	k.Stats.ServiceCycles[class] += n * charged
	k.Stats.ServiceOverhead[class] += n * uint64(ref.Overhead)
	t.KernelCycles += n * uint64(ref.Overhead)
	return n
}

// ensureStack guarantees need bytes of stack headroom, relocating regions or
// terminating the task. It returns false when the task was terminated.
func (k *Kernel) ensureStack(t *Task, need uint16) bool {
	if t.region.Room(t.spPhys, need) {
		return true
	}
	grow := need
	if t.spPhys < t.region.PH {
		grow += t.region.PH - t.spPhys
	}
	if k.growStack(t, grow) {
		return true
	}
	reason := "stack exhausted: no donor with sufficient surplus"
	k.recordFault(t, "stack exhausted", k.M.PC(), reason)
	k.terminate(t, reason)
	return false
}

// watchCheck reports a kernel-mediated data access against the armed
// watchpoints (logical addressing). With no profiler — or no watchpoints —
// the cost is one pointer comparison plus an empty-slice check.
func (k *Kernel) watchCheck(t *Task, logical uint16, write bool) {
	if k.prof == nil || !k.prof.Watching(logical, write) {
		return
	}
	k.prof.Watch(k.M.Cycles(), int32(t.ID), k.M.PC(), logical, write)
}

// serviceDirectMem executes a translated LDS/STS to the heap (or stack) and
// reports whether the task survived.
func (k *Kernel) serviceDirectMem(t *Task, ref *mcu.TrapDesc) bool {
	orig := ref.Group[0]
	k.watchCheck(t, ref.Addr, !orig.Load())
	phys, kind := t.region.Translate(ref.Addr)
	if kind != mcu.AccessHeap && kind != mcu.AccessStack {
		k.faultTask(t, ref.Addr)
		return false
	}
	k.M.Move(orig, phys)
	return true
}

// serviceIndirectMem executes a (possibly grouped) run of indirect memory
// accesses with one shared translation (Section IV-C2), access by access,
// so an invalid address terminates the task with the accesses before it
// done and charged. Returns false when the task was terminated.
func (k *Kernel) serviceIndirectMem(t *Task, ref *mcu.TrapDesc) bool {
	m := k.M
	group := ref.Group[:ref.N]
	sumBase := 0 // what the unpatched accesses would have cost natively
	over := 0    // the kernel overhead so far
	for idx, g := range group {
		ptr := g.Pointer()
		logical, wb, wbVal := g.Addr(m.RegPair(ptr))
		k.watchCheck(t, logical, !g.Load())
		phys, kind := t.region.Translate(logical)
		if kind == mcu.AccessInvalid {
			// A partial group is charged its KTRAP fetch cycle back.
			k.book(t, rewriter.ClassIndirectMem, split(sumBase, over+1), uint64(over+1))
			k.faultTask(t, logical)
			return false
		}
		if g.Load() {
			var b byte
			switch {
			case kind == mcu.AccessIO && rewriter.ReservedDataAddr(logical):
				b = k.virtualTimer3Read(t, logical)
			case kind == mcu.AccessIO:
				b = m.ReadBus(phys)
			default:
				b = m.Peek(phys)
			}
			m.SetReg(g.Reg, b)
		} else {
			b := m.Reg(g.Reg)
			switch {
			case kind == mcu.AccessIO && rewriter.ReservedDataAddr(logical):
				// Writes to the kernel-reserved clock are ignored.
			case kind == mcu.AccessIO:
				m.WriteBus(phys, b)
			default:
				m.Poke(phys, b)
			}
		}
		if wb {
			m.SetRegPair(ptr, wbVal)
		}
		sumBase += g.Op.BaseCycles()
		switch {
		case idx > 0:
			over += CostGroupExtra
		case kind == mcu.AccessIO:
			over += CostIndIO
		case kind == mcu.AccessHeap:
			over += CostIndHeap
		default:
			over += CostIndStack
		}
	}
	k.book(t, rewriter.ClassIndirectMem, split(sumBase, over), uint64(over))
	return true
}

// serviceSPWrite assembles the task's logical SP byte-wise and commits the
// translated physical SP, growing the stack when the new frame would breach
// the red zone (Section IV-C2/C3).
func (k *Kernel) serviceSPWrite(t *Task, reg uint8, addr uint16) bool {
	v := k.M.Reg(reg)
	if addr == ioregs.SPL {
		t.spShadow = t.spShadow&0xFF00 | uint16(v)
	} else {
		t.spShadow = t.spShadow&0x00FF | uint16(v)<<8
	}
	newPhys := t.physSPFromLogical(t.spShadow)
	t.spPhys = newPhys
	k.M.SetSP(newPhys)
	t.noteStackUse()
	return k.ensureStack(t, k.Cfg.RedZone)
}

// virtualTimer3Read virtualizes a read of the kernel-reserved Timer3
// registers: the global clock, with hardware-style high-byte latching
// (Section IV-A).
func (k *Kernel) virtualTimer3Read(t *Task, addr uint16) byte {
	switch addr {
	case ioregs.TCNT3L:
		v := k.M.Timer3Count()
		t.timer3Latch = byte(v >> 8)
		return byte(v)
	case ioregs.TCNT3H:
		return t.timer3Latch
	}
	return 0
}

// serviceLpm performs a program-memory data access with address translation
// through the shift table.
func (k *Kernel) serviceLpm(t *Task, orig mcu.Member, base uint32) {
	m := k.M
	z := m.RegPair(avr.RegZ)
	natByte := t.Nat.Shift.MapByte(z) + base*2
	v := m.FlashByte(natByte)
	m.SetReg(orig.Reg, v) // OpLpm has Dst 0, which is the implied r0
	if orig.Op == avr.OpLpmZInc {
		m.SetRegPair(avr.RegZ, z+1)
	}
}
