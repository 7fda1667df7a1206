// Package tkernel implements the t-kernel comparison baseline (Gu &
// Stankovic, SenSys'06) at the fidelity the paper's evaluation requires:
//
//   - On-node, page-at-a-time binary rewriting with inline patch expansion:
//     no cross-site trampoline merging and no grouped-access optimization,
//     so code inflation is considerably higher than SenSmart's (Figure 4).
//   - A one-time warm-up naturalization cost of roughly one second
//     (Figure 6a); steady-state execution is cheaper than SenSmart because
//     t-kernel protects only the kernel and keeps a single shared stack
//     (Figure 5, Table I).
//   - No multi-task memory regions, no logical data addressing, and no
//     stack relocation: one application owns data memory.
//
// The baseline reuses the SenSmart rewriter's instruction classification
// (both systems patch the same instruction classes) but applies t-kernel's
// size and cycle models, documented in EXPERIMENTS.md.
package tkernel

import (
	"errors"
	"fmt"

	"repro/internal/avr"
	"repro/internal/image"
	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// Steady-state service overheads (cycles). t-kernel performs no data-memory
// translation, so its per-access costs are far below SenSmart's Table II
// rows; indirect program-memory translation still pays a lookup.
const (
	costBranch    = 4
	costCall      = 6
	costDirectIO  = 2
	costDirectMem = 6
	costIndMem    = 8
	costSPAccess  = 2
	costProgMem   = 200
	costSleep     = 8
	costReserved  = 2
)

// Warm-up model: the on-node rewriter naturalizes 128-instruction pages at
// boot. FixedBootCycles reflects the paper's observed ~1 s initialization
// delay (their image includes the full TinyOS runtime); PageRewriteCycles
// adds the per-page cost for the program itself.
const (
	PageInstructions  = 128
	PageRewriteCycles = 448_000
	FixedBootCycles   = 6_600_000
)

// Image is a t-kernel-naturalized program.
type Image struct {
	Nat *rewriter.Naturalized
	// InlineWords is the extra code the on-node rewriter expands inline at
	// every patch site (instead of SenSmart's merged trampolines).
	InlineWords int
	// Pages is the number of 128-instruction rewriting pages.
	Pages int
}

// Naturalize rewrites prog under the t-kernel model.
func Naturalize(prog *image.Program) (*Image, error) {
	// The on-node rewriter works one page at a time, which forecloses both
	// whole-program trampoline merging and basic-block access grouping.
	nat, err := rewriter.Rewrite(prog, rewriter.Config{
		NoGrouping:        true,
		NoTrampolineMerge: true,
	})
	if err != nil {
		return nil, err
	}
	img := &Image{Nat: nat}
	insts := 0
	for pc := uint32(0); pc < uint32(len(prog.Words)); {
		if prog.InTextData(pc) {
			pc++
			continue
		}
		in, err := avr.Decode(prog.Words[pc:])
		if err != nil {
			return nil, err
		}
		insts++
		pc += uint32(in.Words())
	}
	img.Pages = (insts + PageInstructions - 1) / PageInstructions
	// Inline expansion: every site carries its own patch body, about half
	// again the size of SenSmart's shared body (the modest page-sized
	// rewriting unit limits optimization, Section IV-A), plus dispatch glue.
	// With merging disabled, nat.Trampolines has one entry per site.
	for _, tr := range nat.Trampolines {
		img.InlineWords += tr.Words*3/2 + 3
	}
	return img, nil
}

// CodeBytes returns the naturalized code size under the t-kernel layout:
// patched code plus per-site inline expansions (t-kernel keeps no separate
// shift table; its swapping tables are folded into the inline glue).
func (img *Image) CodeBytes() int {
	return 2 * (img.Nat.CodeWords + img.InlineWords)
}

// WarmupCycles is the one-time on-node rewriting cost.
func (img *Image) WarmupCycles() uint64 {
	return FixedBootCycles + uint64(img.Pages)*PageRewriteCycles
}

// Runtime executes one t-kernel-naturalized application on a machine.
type Runtime struct {
	M   *mcu.Machine
	img *Image

	// ServiceCalls counts service invocations, indexed by rewriter.Class. A
	// flat array, like kernel.Stats.ServiceCalls: the increment sits on the
	// per-trap hot path.
	ServiceCalls [16]uint64
	exited       bool
}

// NewRuntime loads img at flash base 0 (t-kernel keeps the application's
// vector table in place) and attaches the runtime.
func NewRuntime(m *mcu.Machine, img *Image) (*Runtime, error) {
	r := &Runtime{M: m, img: img}
	words := append([]uint16(nil), img.Nat.Program.Words...)
	// Base 0: relocations are identity; KTRAP ids are already local.
	if err := m.LoadFlash(0, words); err != nil {
		return nil, err
	}
	for i, b := range img.Nat.Program.DataInit {
		m.Poke(img.Nat.Program.HeapBase+uint16(i), b)
	}
	m.SetTrapHandler(r.handleTrap)
	m.SetPC(img.Nat.Program.Entry)
	return r, nil
}

// Boot charges the warm-up rewriting cost.
func (r *Runtime) Boot() {
	r.M.AddCycles(r.img.WarmupCycles())
}

// Run executes until the application exits or the cycle limit is reached.
func (r *Runtime) Run(limit uint64) error {
	err := r.M.Run(limit)
	var f *mcu.Fault
	if errors.As(err, &f) && f.Kind == mcu.FaultHalt {
		return nil
	}
	return err
}

// Exited reports whether the application reached its exit service.
func (r *Runtime) Exited() bool { return r.exited }

func (r *Runtime) handleTrap(m *mcu.Machine, id uint16) error {
	if int(id) >= len(r.img.Nat.Patches) {
		return fmt.Errorf("tkernel: unknown trap id %d at pc=%#x", id, m.PC())
	}
	p := r.img.Nat.Patches[id]
	r.ServiceCalls[p.Class]++
	charge := func(overhead int) {
		total := p.Orig.Op.BaseCycles() + overhead - 1
		if total > 0 {
			m.AddCycles(uint64(total))
		}
	}
	switch p.Class {
	case rewriter.ClassBranch:
		charge(costBranch)
		taken := true
		switch p.Orig.Op {
		case avr.OpBrbs:
			taken = m.SREG()&(1<<p.Orig.Src) != 0
		case avr.OpBrbc:
			taken = m.SREG()&(1<<p.Orig.Src) == 0
		}
		if taken {
			m.AddCycles(1)
			m.SetPC(p.NatTarget)
		} else {
			m.SetPC(p.NatNext)
		}
	case rewriter.ClassCall:
		charge(costCall)
		m.PushWord(uint16(p.NatNext))
		m.SetPC(p.NatTarget)
	case rewriter.ClassIndirectCall:
		charge(costProgMem + costCall)
		z := m.RegPair(avr.RegZ)
		m.PushWord(uint16(p.NatNext))
		m.SetPC(r.img.Nat.Shift.Map(uint32(z)))
	case rewriter.ClassIndirectJump:
		charge(costProgMem)
		m.SetPC(r.img.Nat.Shift.Map(uint32(m.RegPair(avr.RegZ))))
	case rewriter.ClassDirectIO:
		charge(costDirectIO)
		r.execDirect(p.Orig)
		m.SetPC(p.NatNext)
	case rewriter.ClassDirectMem:
		charge(costDirectMem)
		r.execDirect(p.Orig)
		m.SetPC(p.NatNext)
	case rewriter.ClassReservedIO:
		charge(costReserved)
		r.execDirect(p.Orig)
		m.SetPC(p.NatNext)
	case rewriter.ClassIndirectMem:
		r.execIndirect(p)
		m.SetPC(p.NatNext)
	case rewriter.ClassSPRead:
		charge(costSPAccess)
		sp := m.SP()
		v := byte(sp)
		if p.Orig.Imm == 0x3E { // SPH
			v = byte(sp >> 8)
		}
		m.SetReg(p.Orig.Dst, v)
		m.SetPC(p.NatNext)
	case rewriter.ClassSPWrite:
		charge(costSPAccess)
		sp := m.SP()
		v := m.Reg(p.Orig.Dst)
		if p.Orig.Imm == 0x3E {
			sp = sp&0x00FF | uint16(v)<<8
		} else {
			sp = sp&0xFF00 | uint16(v)
		}
		m.SetSP(sp)
		m.SetPC(p.NatNext)
	case rewriter.ClassSleep:
		charge(costSleep)
		m.SetPC(p.NatNext)
		m.Sleep()
	case rewriter.ClassLpm:
		charge(costProgMem)
		z := m.RegPair(avr.RegZ)
		v := m.FlashByte(r.img.Nat.Shift.MapByte(z))
		m.SetReg(p.Orig.Dst, v)
		if p.Orig.Op == avr.OpLpmZInc {
			m.SetRegPair(avr.RegZ, z+1)
		}
		m.SetPC(p.NatNext)
	case rewriter.ClassExit:
		r.exited = true
		m.Halt("application exited")
	default:
		return fmt.Errorf("tkernel: unhandled class %v", p.Class)
	}
	return nil
}

// execDirect runs an LDS/STS at its untranslated address (t-kernel keeps
// the application's addresses physical).
func (r *Runtime) execDirect(in avr.Inst) {
	if in.Op == avr.OpLds {
		r.M.SetReg(in.Dst, r.M.ReadBus(uint16(in.Imm)))
	} else {
		r.M.WriteBus(uint16(in.Imm), r.M.Reg(in.Dst))
	}
}

// execIndirect runs an indirect access run (ungrouped under t-kernel, so
// each patch holds exactly one access) at untranslated addresses.
func (r *Runtime) execIndirect(p *rewriter.Patch) {
	m := r.M
	cycles := -1
	for _, in := range p.Group {
		ptr, _ := in.PointerReg()
		v := m.RegPair(ptr)
		var (
			addr  uint16
			wb    bool
			wbVal uint16
		)
		switch in.Op {
		case avr.OpLdXInc, avr.OpLdYInc, avr.OpLdZInc,
			avr.OpStXInc, avr.OpStYInc, avr.OpStZInc:
			addr, wb, wbVal = v, true, v+1
		case avr.OpLdXDec, avr.OpLdYDec, avr.OpLdZDec,
			avr.OpStXDec, avr.OpStYDec, avr.OpStZDec:
			addr, wb, wbVal = v-1, true, v-1
		case avr.OpLddY, avr.OpLddZ, avr.OpStdY, avr.OpStdZ:
			addr = v + uint16(in.Imm)
		default:
			addr = v
		}
		if in.IsLoad() {
			m.SetReg(in.Dst, m.ReadBus(addr))
		} else {
			m.WriteBus(addr, m.Reg(in.Dst))
		}
		if wb {
			m.SetRegPair(ptr, wbVal)
		}
		cycles += in.Op.BaseCycles() + costIndMem
	}
	if cycles > 0 {
		m.AddCycles(uint64(cycles))
	}
}
