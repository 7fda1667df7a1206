package mcu

import "repro/internal/avr"

// In-block trap service. A naturalized task traps into the kernel about once
// every six instructions, and four classes make up nearly all of those traps:
// patched branches, calls, and direct and indirect SRAM accesses. The kernel
// publishes what those services need — a descriptor per trap id at program
// load, and the running task's counter block at every switch — and the fused
// tier's trap terminators run the service themselves (serve) and keep
// chaining blocks. They book exactly what the kernel's handler would and
// enter the kernel only for work they cannot do exactly: a slice check, a
// relocation, an I/O or out-of-region access, a foreign trap, any other
// class, or any run whose observers need per-trap events (the kernel then
// publishes no counter block). Step always enters the kernel, so stepwise
// runs stay the reference the fused tier is held to.

// ServiceClasses bounds the kernel's per-class service ledgers.
const ServiceClasses = 16

// Access classifies where a task-logical data address lands (Region.Translate).
type Access uint8

const (
	AccessIO Access = iota + 1
	AccessHeap
	AccessStack
	AccessInvalid
)

// Region is a task's physical data-memory region: heap [PL, PH), stack
// [PH, PU).
type Region struct{ PL, PH, PU uint16 }

// Translate maps a task-logical data address to a physical one
// (Section IV-C2, Figure 2): the I/O area is identity-mapped, the heap adds
// the displacement PL, and the stack adds PU - M, where M (the logical top)
// is DataSize.
func (r *Region) Translate(logical uint16) (phys uint16, kind Access) {
	if logical < SRAMBase {
		return logical, AccessIO
	}
	if heapSize := r.PH - r.PL; logical < SRAMBase+heapSize {
		return logical - SRAMBase + r.PL, AccessHeap
	}
	// The logical stack grows down from M; the topmost stack byte lives at
	// M-1. Addresses at or above M would land past PU — another task's
	// region — so they fault like any other out-of-region access.
	if logical >= DataSize {
		return 0, AccessInvalid
	}
	if stackSize := r.PU - r.PH; logical >= DataSize-stackSize {
		return logical - (DataSize - stackSize) + r.PH, AccessStack
	}
	return 0, AccessInvalid
}

// StackUsed returns the stack bytes in use when the physical SP is sp.
func (r *Region) StackUsed(sp uint16) uint16 {
	if sp >= r.PU {
		return 0
	}
	return r.PU - 1 - sp
}

// Room reports whether the physical SP sp leaves at least need bytes of
// stack above the heap.
func (r *Region) Room(sp, need uint16) bool { return sp >= r.PH && sp-r.PH >= need }

// Fused service kinds of a TrapDesc: which service serve may run itself.
const (
	ServeKernel      uint8 = iota // only the kernel services the trap
	ServeBranch                   // a patched branch or jump
	ServeCall                     // CALL/RCALL: push the return word, jump
	ServeDirectMem                // LDS/STS to the heap or stack
	ServeIndirectMem              // a (grouped) LD/ST through X, Y or Z
)

// Branch evaluation kinds of a TrapDesc (Taken).
const (
	BrAlways uint8 = iota
	BrSet          // BRBS: taken when SREG&Mask is set
	BrClr          // BRBC: taken when SREG&Mask is clear
)

// Member is one original data access of a trap: the instruction an LDS/STS
// or I/O trap replaced, or one access of an indirect group.
type Member struct {
	Op   avr.Op
	Reg  uint8 // the register loaded or stored
	Disp uint8 // LDD/STD displacement
}

// Load reports whether the member loads a register.
func (g Member) Load() bool { return avr.Inst{Op: g.Op}.IsLoad() }

// Pointer returns the member's pointer register pair (X, Y or Z).
func (g Member) Pointer() uint8 {
	p, _ := avr.Inst{Op: g.Op}.PointerReg()
	return p
}

// Addr returns the logical address an indirect member touches when its
// pointer holds v, and whether and with what it writes the pointer back.
func (g Member) Addr(v uint16) (logical uint16, wb bool, next uint16) {
	switch g.Op {
	case avr.OpLdXInc, avr.OpLdYInc, avr.OpLdZInc,
		avr.OpStXInc, avr.OpStYInc, avr.OpStZInc:
		return v, true, v + 1
	case avr.OpLdXDec, avr.OpLdYDec, avr.OpLdZDec,
		avr.OpStXDec, avr.OpStYDec, avr.OpStZDec:
		return v - 1, true, v - 1
	case avr.OpLddY, avr.OpLddZ, avr.OpStdY, avr.OpStdZ:
		return v + uint16(g.Disp), false, 0
	}
	return v, false, 0
}

// Move performs the member's data transfer at physical SRAM address phys.
func (m *Machine) Move(g Member, phys uint16) {
	if g.Load() {
		m.SetReg(g.Reg, m.Peek(phys))
	} else {
		m.Poke(phys, m.Reg(g.Reg))
	}
}

// TrapDesc describes one kernel trap id. The kernel builds it once, when it
// loads the trap's program, and services its own traps from it too; it is
// pointer-free, so the table adds nothing to garbage-collector scans.
type TrapDesc struct {
	// Base is the owning program's flash base; Next and Target are the
	// continuation and the branch or call target (absolute word addresses).
	Base, Next, Target uint32
	// Charge is the cycles the service adds beyond the one-cycle KTRAP fetch
	// and Overhead its Table II overhead. For an indirect group both hold
	// when the first access lands in the heap; one landing in the stack
	// adds StackExtra to each.
	Charge, Overhead uint16
	// Addr is the original instruction's data address (LDS/STS, I/O).
	Addr  uint16
	Class uint8 // the kernel's service class, indexing its ledgers
	Serve uint8 // ServeKernel, or the service serve runs itself
	Br    uint8 // branch evaluation: BrAlways, BrSet or BrClr
	Mask  byte  // SREG mask for BrSet/BrClr
	Back  bool  // a backward branch: counts toward the slice check
	// N is how many data accesses the trap makes, the first N of Group.
	N          uint8
	StackExtra uint8
	Group      [4]Member
}

// Taken evaluates a branch trap against the flags in sreg.
func (d *TrapDesc) Taken(sreg byte) bool {
	switch d.Br {
	case BrSet:
		return sreg&d.Mask != 0
	case BrClr:
		return sreg&d.Mask == 0
	}
	return true
}

// TaskBlock is the running task's counter block: the state serve reads and
// the ledgers it books, each pointing into the kernel's own task and kernel
// records, so a service booked here is booked there.
type TaskBlock struct {
	// Base is the task's program base: a trap of another program is an
	// isolation violation, left to the kernel.
	Base uint32
	// CallRoom is the stack headroom a call needs without relocation.
	CallRoom   uint16
	Region     *Region
	SP         *uint16 // the task's saved physical SP
	MaxStack   *uint16 // its stack high-water mark
	BranchLeft *uint32 // its backward-branch countdown to the slice check
	TaskCalls  *[ServiceClasses]uint64
	// KernelCycles accrues the overhead charged on the task's behalf.
	KernelCycles *uint64
	// The kernel-wide ledgers: calls, charged cycles and overhead per class,
	// and backward-branch traps.
	Calls, Cycles, Overhead *[ServiceClasses]uint64
	BranchTraps             *uint64
}

// Enter books a trap's entry: one call of class on the kernel's and the
// task's ledgers, and sp as the task's saved SP and stack high-water sample.
func (b *TaskBlock) Enter(class uint8, sp uint16) {
	b.Calls[class]++
	b.TaskCalls[class]++
	*b.SP = sp
	if used := b.Region.StackUsed(sp); used > *b.MaxStack {
		*b.MaxStack = used
	}
}

// Book charges a service of class: the clock and the class's cycle ledger
// advance by charged, its overhead ledger and the task's kernel cycles by
// overhead.
func (b *TaskBlock) Book(m *Machine, class uint8, charged, overhead uint64) {
	m.cycle += charged
	b.Cycles[class] += charged
	b.Overhead[class] += overhead
	*b.KernelCycles += overhead
}

// SetTrapService publishes the kernel's trap descriptors, indexed by trap
// id, and the running task's counter block; a nil block makes every trap
// enter the kernel. The kernel republishes after each program load, at
// every switch, on termination and on restore.
func (m *Machine) SetTrapService(traps []TrapDesc, task *TaskBlock) {
	m.traps, m.task = traps, task
}

// wordFits reports whether a two-byte push at SP sp stays inside the guard.
func (m *Machine) wordFits(sp uint16) bool {
	return !m.guardOn || sp >= m.guardLo+1 && sp < m.guardHi
}

// serve runs the service of trap id, whose KTRAP fetch the caller has
// charged, with the flags in sreg, and reports whether it did. It declines
// — changing nothing — unless the service is one of the four it runs and
// nothing in it needs the kernel: no counter block is published, the trap
// is another program's, a backward branch would bring the countdown to the
// slice check, a call lacks headroom or its push would leave the guard, or
// an access lands outside the task's heap and stack.
func (m *Machine) serve(id uint16, sreg byte) bool {
	c := m.task
	if c == nil || int(id) >= len(m.traps) {
		return false
	}
	d := &m.traps[id]
	if d.Base != c.Base {
		return false
	}
	sp := m.SP()
	switch d.Serve {
	case ServeBranch:
		if d.Back && *c.BranchLeft <= 1 {
			return false
		}
		c.Enter(d.Class, sp)
		charged, pc := uint64(d.Charge), d.Next
		if d.Taken(sreg) {
			charged, pc = charged+1, d.Target // the taken penalty
		}
		c.Book(m, d.Class, charged, uint64(d.Overhead))
		if d.Back {
			*c.BranchTraps++
			*c.BranchLeft--
		}
		m.SetPC(pc)
	case ServeCall:
		if !c.Region.Room(sp, c.CallRoom) || !m.wordFits(sp) {
			return false
		}
		c.Enter(d.Class, sp)
		c.Book(m, d.Class, uint64(d.Charge), uint64(d.Overhead))
		m.pushWord(uint16(d.Next))
		*c.SP = m.SP()
		m.SetPC(d.Target)
	case ServeDirectMem:
		phys, kind := c.Region.Translate(d.Addr)
		if kind != AccessHeap && kind != AccessStack {
			return false
		}
		c.Enter(d.Class, sp)
		c.Book(m, d.Class, uint64(d.Charge), uint64(d.Overhead))
		m.Move(d.Group[0], phys)
		m.SetPC(d.Next)
	case ServeIndirectMem:
		// Only a group's last access may load into the shared pointer
		// (the kernel marks no other group ServeIndirectMem), so every
		// access's address is known before any byte moves.
		group := d.Group[:d.N]
		ptr := group[0].Pointer()
		var phys [len(d.Group)]uint16
		var extra uint64 // the first access's stack surcharge
		v := m.RegPair(ptr)
		for i, g := range group {
			logical, wb, next := g.Addr(v)
			p, kind := c.Region.Translate(logical)
			switch {
			case kind == AccessStack && i == 0:
				extra = uint64(d.StackExtra)
			case kind != AccessHeap && kind != AccessStack:
				return false
			}
			phys[i] = p
			if wb {
				v = next
			}
		}
		c.Enter(d.Class, sp)
		c.Book(m, d.Class, uint64(d.Charge)+extra, uint64(d.Overhead)+extra)
		for i, g := range group {
			_, wb, next := g.Addr(m.RegPair(ptr))
			m.Move(g, phys[i])
			if wb {
				m.SetRegPair(ptr, next)
			}
		}
		m.SetPC(d.Next)
	default:
		return false
	}
	return true
}
