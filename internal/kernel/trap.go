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
	if ref.base != t.Base {
		// The task jumped into another program's code: isolation violation.
		reason := "control transfer into foreign program"
		k.recordFault(t, "foreign program", m.PC(), reason)
		k.terminate(t, reason)
		return nil
	}
	k.Stats.ServiceCalls[ref.class]++
	t.ServiceCalls[ref.class]++

	// The hardware SP is authoritative while the task runs natively.
	t.spPhys = m.SP()
	t.noteStackUse()

	k.curService = ref.class
	r := k.Cfg.Trace
	if r == nil {
		err := k.dispatch(t, ref)
		k.curService = 0
		return err
	}
	site := m.PC()
	back := uint64(0)
	if ref.class == rewriter.ClassBranch && ref.backward {
		back = 1
	}
	r.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindTrapEnter,
		Task: int32(t.ID), Arg: uint64(ref.class), Arg2: back, PC: site})
	before := k.Stats.ServiceCycles[ref.class]
	err := k.dispatch(t, ref)
	k.curService = 0
	// Arg2 is the cycles the service proper charged; relocation, switch
	// and idle cycles inside the window carry their own events, so the
	// enter-to-exit clock delta decomposes exactly (see trace_cost_test).
	r.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindTrapExit,
		Task: int32(t.ID), Arg: uint64(ref.class),
		Arg2: k.Stats.ServiceCycles[ref.class] - before, PC: site})
	return err
}

// dispatch routes one validated trap to its service and charges the Table II
// cycle cost. On return the machine PC points at the continuation the
// service chose. Hot operands (class, continuation PCs, base cycles) come
// pre-flattened in ref; the cold services read the patch itself.
func (k *Kernel) dispatch(t *Task, ref *trapRef) error {
	m := k.M
	p := ref.patch
	base := ref.base
	switch ref.class {
	case rewriter.ClassBranch:
		k.serviceBranch(t, ref)
	case rewriter.ClassCall:
		k.charge(t, ref.class, CostStackCheck, int(ref.baseCyc))
		if !k.ensureStack(t, k.Cfg.RedZone+2) {
			return nil
		}
		m.PushWord(uint16(ref.absNext))
		t.spPhys = m.SP()
		m.SetPC(ref.absTarget)
	case rewriter.ClassIndirectCall:
		k.charge(t, ref.class, CostProgMem+CostStackCheck, int(ref.baseCyc))
		if !k.ensureStack(t, k.Cfg.RedZone+2) {
			return nil
		}
		z := m.RegPair(avr.RegZ)
		m.PushWord(uint16(ref.absNext))
		t.spPhys = m.SP()
		m.SetPC(base + t.Nat.Shift.Map(uint32(z)))
	case rewriter.ClassIndirectJump:
		k.charge(t, ref.class, CostProgMem, int(ref.baseCyc))
		z := m.RegPair(avr.RegZ)
		m.SetPC(base + t.Nat.Shift.Map(uint32(z)))
	case rewriter.ClassDirectIO:
		k.charge(t, ref.class, CostDirectIO, int(ref.baseCyc))
		addr := uint16(p.Orig.Imm)
		k.watchCheck(t, addr, p.Orig.Op != avr.OpLds)
		if p.Orig.Op == avr.OpLds {
			m.SetReg(p.Orig.Dst, m.ReadBus(addr))
		} else {
			m.WriteBus(addr, m.Reg(p.Orig.Dst))
		}
		m.SetPC(ref.absNext)
	case rewriter.ClassReservedIO:
		k.charge(t, ref.class, CostReservedIO, int(ref.baseCyc))
		k.watchCheck(t, uint16(p.Orig.Imm), p.Orig.Op != avr.OpLds)
		k.serviceReservedIO(t, p.Orig)
		m.SetPC(ref.absNext)
	case rewriter.ClassDirectMem:
		k.charge(t, ref.class, CostDirectMem, int(ref.baseCyc))
		if !k.serviceDirectMem(t, p.Orig) {
			return nil
		}
		m.SetPC(ref.absNext)
	case rewriter.ClassIndirectMem:
		if !k.serviceIndirectMem(t, p) {
			return nil
		}
		m.SetPC(ref.absNext)
	case rewriter.ClassSPRead:
		k.charge(t, ref.class, CostGetSP, int(ref.baseCyc))
		logical := t.logicalSP()
		v := byte(logical)
		if p.Orig.Imm == int32(ioregs.SPH) {
			v = byte(logical >> 8)
		}
		m.SetReg(p.Orig.Dst, v)
		m.SetPC(ref.absNext)
	case rewriter.ClassSPWrite:
		k.charge(t, ref.class, CostSetSP, int(ref.baseCyc))
		if !k.serviceSPWrite(t, p.Orig) {
			return nil
		}
		m.SetPC(ref.absNext)
	case rewriter.ClassSleep:
		k.charge(t, ref.class, CostSleep, int(ref.baseCyc))
		t.state = TaskSleeping
		t.wakeAt = m.Cycles() + k.Cfg.SleepQuantum
		if k.Cfg.Trace != nil {
			k.Cfg.Trace.Emit(trace.Event{Cycle: m.Cycles(), Kind: trace.KindSleep,
				Task: int32(t.ID), Arg: t.wakeAt})
		}
		k.schedule(ref.absNext)
	case rewriter.ClassLpm:
		k.charge(t, ref.class, CostProgMem, int(ref.baseCyc))
		k.serviceLpm(t, p.Orig, base)
		m.SetPC(ref.absNext)
	case rewriter.ClassExit:
		k.terminate(t, "exited")
	default:
		return fmt.Errorf("kernel: unhandled service class %v", ref.class)
	}
	return nil
}

// charge accounts a service: the original instruction's own cycles
// (baseCycles, precomputed into the trap ref) plus the kernel overhead,
// minus the one cycle the KTRAP fetch already cost. The per-class ledgers
// record the in-window charge (ServiceCycles) and the Table II overhead
// alone (ServiceOverhead); the latter also accrues on the task, attributing
// kernel time to who caused it.
func (k *Kernel) charge(t *Task, class rewriter.Class, overhead, baseCycles int) {
	total := baseCycles + overhead - 1
	charged := uint64(0)
	if total > 0 {
		charged = uint64(total)
		k.M.AddCycles(charged)
		k.Stats.ServiceCycles[class] += charged
	}
	k.Stats.ServiceOverhead[class] += uint64(overhead)
	t.KernelCycles += uint64(overhead)
	if k.prof != nil {
		// Charges happen before the service sets the continuation PC, so
		// the machine PC is still the trap site.
		k.prof.OnService(int32(t.ID), class, k.M.PC(), uint64(overhead), charged)
	}
}

// chargeExtra accounts additional native cycles inside a service (e.g. the
// branch-taken penalty) that are not kernel overhead.
func (k *Kernel) chargeExtra(class rewriter.Class, n uint64) {
	k.M.AddCycles(n)
	k.Stats.ServiceCycles[class] += n
}

// serviceBranch implements the patched-branch service: evaluate the branch
// against live flags, count backward branches toward the 1-of-256 software
// trap, and preempt when the time slice has expired (Section IV-B). It is
// the hottest service by far — every patched branch traps — so it runs
// entirely off the flattened trap ref.
func (k *Kernel) serviceBranch(t *Task, ref *trapRef) {
	m := k.M
	k.charge(t, rewriter.ClassBranch, CostBranchTrap, int(ref.baseCyc))
	next := ref.absNext
	if ref.taken(m.SREG()) {
		next = ref.absTarget
		k.chargeExtra(rewriter.ClassBranch, 1) // branch-taken penalty, as on hardware
		if k.prof != nil {
			k.prof.OnAppExtra(int32(t.ID), m.PC(), 1)
		}
	}
	if ref.backward {
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
	if ref.class != rewriter.ClassBranch || ref.base != t.Base || t.sliceStart == m.Cycles() {
		return 0
	}
	if ref.backward {
		n = min(n, uint64(t.branchLeft-1))
		k.Stats.BranchTraps += n
		t.branchLeft -= uint32(n)
	}
	charged := uint64(0)
	if total := int(ref.baseCyc) + CostBranchTrap - 1; total > 0 {
		charged = uint64(total)
	}
	if ref.taken(m.SREG()) {
		charged++
	}
	k.Stats.ServiceCalls[ref.class] += n
	t.ServiceCalls[ref.class] += n
	k.Stats.ServiceCycles[ref.class] += n * charged
	k.Stats.ServiceOverhead[ref.class] += n * CostBranchTrap
	t.KernelCycles += n * CostBranchTrap
	return n
}

// taken evaluates a branch trap against the flags in sreg.
func (r *trapRef) taken(sreg byte) bool {
	switch r.brKind {
	case brSet:
		return sreg&r.brMask != 0
	case brClr:
		return sreg&r.brMask == 0
	}
	return true
}

// ensureStack guarantees need bytes of stack headroom, relocating regions or
// terminating the task. It returns false when the task was terminated.
func (k *Kernel) ensureStack(t *Task, need uint16) bool {
	if t.spPhys >= t.ph && t.spPhys-t.ph >= need {
		return true
	}
	grow := need
	if t.spPhys < t.ph {
		grow += t.ph - t.spPhys
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
func (k *Kernel) serviceDirectMem(t *Task, in avr.Inst) bool {
	k.watchCheck(t, uint16(in.Imm), in.Op != avr.OpLds)
	phys, kind := t.translate(uint16(in.Imm))
	if kind != accessHeap && kind != accessStack {
		k.faultTask(t, uint16(in.Imm))
		return false
	}
	if in.Op == avr.OpLds {
		k.M.SetReg(in.Dst, k.M.Peek(phys))
	} else {
		k.M.Poke(phys, k.M.Reg(in.Dst))
	}
	return true
}

// serviceIndirectMem executes a (possibly grouped) run of indirect memory
// accesses with one shared translation (Section IV-C2). Returns false when
// the task was terminated by an invalid access.
func (k *Kernel) serviceIndirectMem(t *Task, p *rewriter.Patch) bool {
	m := k.M
	cycles := -1 // the KTRAP fetch already charged one
	sumBase := 0 // what the unpatched accesses would have cost natively
	for idx, in := range p.Group {
		ptr, _ := in.PointerReg()
		v := m.RegPair(ptr)
		var (
			logical uint16
			wb      bool
			wbVal   uint16
		)
		switch in.Op {
		case avr.OpLdXInc, avr.OpLdYInc, avr.OpLdZInc,
			avr.OpStXInc, avr.OpStYInc, avr.OpStZInc:
			logical, wb, wbVal = v, true, v+1
		case avr.OpLdXDec, avr.OpLdYDec, avr.OpLdZDec,
			avr.OpStXDec, avr.OpStYDec, avr.OpStZDec:
			logical, wb, wbVal = v-1, true, v-1
		case avr.OpLddY, avr.OpLddZ, avr.OpStdY, avr.OpStdZ:
			logical = v + uint16(in.Imm)
		default:
			logical = v
		}
		k.watchCheck(t, logical, !in.IsLoad())
		phys, kind := t.translate(logical)
		if kind == accessInvalid {
			k.accountIndirect(t, cycles+1, sumBase)
			k.faultTask(t, logical)
			return false
		}
		if in.IsLoad() {
			var b byte
			switch {
			case kind == accessIO && rewriter.ReservedDataAddr(logical):
				b = k.virtualTimer3Read(t, logical)
			case kind == accessIO:
				b = m.ReadBus(phys)
			default:
				b = m.Peek(phys)
			}
			m.SetReg(in.Dst, b)
		} else {
			b := m.Reg(in.Dst)
			switch {
			case kind == accessIO && rewriter.ReservedDataAddr(logical):
				// Writes to the kernel-reserved clock are ignored.
			case kind == accessIO:
				m.WriteBus(phys, b)
			default:
				m.Poke(phys, b)
			}
		}
		if wb {
			m.SetRegPair(ptr, wbVal)
		}
		cycles += in.Op.BaseCycles()
		sumBase += in.Op.BaseCycles()
		if idx == 0 {
			switch kind {
			case accessIO:
				cycles += CostIndIO
			case accessHeap:
				cycles += CostIndHeap
			default:
				cycles += CostIndStack
			}
		} else {
			cycles += CostGroupExtra
		}
	}
	k.accountIndirect(t, cycles, sumBase)
	return true
}

// accountIndirect charges the accumulated indirect-memory service cycles and
// books the overhead: the in-window charge plus the already-spent KTRAP fetch
// cycle, minus what the unpatched accesses would have cost natively.
func (k *Kernel) accountIndirect(t *Task, total, sumBase int) {
	charged := uint64(0)
	if total > 0 {
		charged = uint64(total)
		k.M.AddCycles(charged)
		k.Stats.ServiceCycles[rewriter.ClassIndirectMem] += charged
	}
	overhead := uint64(0)
	if over := total + 1 - sumBase; over > 0 {
		overhead = uint64(over)
		k.Stats.ServiceOverhead[rewriter.ClassIndirectMem] += overhead
		t.KernelCycles += overhead
	}
	if k.prof != nil {
		k.prof.OnService(int32(t.ID), rewriter.ClassIndirectMem, k.M.PC(), overhead, charged)
	}
}

// serviceSPWrite assembles the task's logical SP byte-wise and commits the
// translated physical SP, growing the stack when the new frame would breach
// the red zone (Section IV-C2/C3).
func (k *Kernel) serviceSPWrite(t *Task, in avr.Inst) bool {
	v := k.M.Reg(in.Dst)
	if in.Imm == int32(ioregs.SPL) {
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

// serviceReservedIO virtualizes the kernel-reserved Timer3 registers: reads
// return the global clock (with hardware-style high-byte latching); writes
// are discarded (Section IV-A).
func (k *Kernel) serviceReservedIO(t *Task, in avr.Inst) {
	if in.Op != avr.OpLds {
		return
	}
	k.M.SetReg(in.Dst, k.virtualTimer3Read(t, uint16(in.Imm)))
}

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
func (k *Kernel) serviceLpm(t *Task, in avr.Inst, base uint32) {
	m := k.M
	z := m.RegPair(avr.RegZ)
	natByte := t.Nat.Shift.MapByte(z) + base*2
	v := m.FlashByte(natByte)
	dst := in.Dst // OpLpm has Dst 0, which is the implied r0
	m.SetReg(dst, v)
	if in.Op == avr.OpLpmZInc {
		m.SetRegPair(avr.RegZ, z+1)
	}
}
