// Package rewriter implements SenSmart's base-station binary rewriter
// (Section IV-A of the paper). It analyzes a compiled application image and
// produces the "naturalized" program: every instruction that affects control
// flow, accesses data memory, manipulates the stack pointer, or touches an
// OS-reserved resource is replaced in place by a same-instruction-count
// kernel-service escape, while trampoline code and the shift table are
// appended after the program.
//
// Execution model note (documented in DESIGN.md): in this reproduction the
// kernel runtime is implemented in Go, entered through the 2-word KTRAP
// escape that takes the place of the paper's inline JMP/CALL into a
// trampoline. Trampoline bodies are still emitted into the image with
// realistic sizes so that code-inflation measurements (Figure 4) remain
// meaningful, and each kernel service charges the cycle costs of Table II.
package rewriter

import (
	"fmt"

	"repro/internal/avr"
	"repro/internal/image"
	"repro/internal/ioregs"
)

// Class identifies the kernel service a patched instruction traps into.
type Class uint8

const (
	// ClassBranch is a patched relative branch or jump. Backward branches
	// carry the 1-of-256 software-trap preemption counter (Section IV-B).
	ClassBranch Class = iota + 1
	// ClassIndirectJump is IJMP: program-memory address translation through
	// the shift table.
	ClassIndirectJump
	// ClassIndirectCall is ICALL: stack check plus program-memory
	// translation.
	ClassIndirectCall
	// ClassCall is CALL/RCALL: stack check plus direct transfer.
	ClassCall
	// ClassDirectIO is LDS/STS to the identity-mapped I/O area.
	ClassDirectIO
	// ClassDirectMem is LDS/STS to the task's heap (static displacement).
	ClassDirectMem
	// ClassIndirectMem is LD/LDD/ST/STD through X/Y/Z, possibly a grouped
	// run translated once (Section IV-C2).
	ClassIndirectMem
	// ClassSPRead is IN Rd, SPL/SPH.
	ClassSPRead
	// ClassSPWrite is OUT SPL/SPH, Rr.
	ClassSPWrite
	// ClassSleep is SLEEP (kernel-mediated yield).
	ClassSleep
	// ClassLpm is LPM: program-memory data access translation.
	ClassLpm
	// ClassReservedIO is access to the kernel-reserved Timer3 registers.
	ClassReservedIO
	// ClassExit is an application BREAK, which SenSmart turns into the
	// task-exit service (a bare BREAK has no meaning under the kernel).
	ClassExit
)

func (c Class) String() string {
	switch c {
	case ClassBranch:
		return "branch"
	case ClassIndirectJump:
		return "ijmp"
	case ClassIndirectCall:
		return "icall"
	case ClassCall:
		return "call"
	case ClassDirectIO:
		return "direct-io"
	case ClassDirectMem:
		return "direct-mem"
	case ClassIndirectMem:
		return "indirect-mem"
	case ClassSPRead:
		return "sp-read"
	case ClassSPWrite:
		return "sp-write"
	case ClassSleep:
		return "sleep"
	case ClassLpm:
		return "lpm"
	case ClassReservedIO:
		return "reserved-io"
	case ClassExit:
		return "exit"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Patch describes one rewritten site. Addresses are program-relative word
// addresses; the linker and kernel add the task's flash base.
type Patch struct {
	Local  uint16 // local service id; the linker offsets it globally
	Class  Class
	Orig   avr.Inst // first (or only) original instruction
	OrigPC uint32   // original word address
	NatPC  uint32   // word address of the KTRAP slot in the naturalized code
	// Group holds the full run of original instructions for a grouped
	// memory access (Group[0] == Orig). len(Group) == 1 otherwise.
	Group []avr.Inst
	// OrigTarget/NatTarget are the static control-transfer target in
	// original and naturalized addresses (branch/call classes).
	OrigTarget uint32
	NatTarget  uint32
	// NatNext is the naturalized fall-through address (after the KTRAP slot
	// and, for groups, the skipped member slots).
	NatNext uint32
	// Backward marks branches that participate in software-trap preemption.
	Backward bool
	// TrampKey identifies the trampoline body this site shares.
	TrampKey string
}

// Naturalized is the rewriter's output for one program.
type Naturalized struct {
	// Program holds the naturalized image: patched code, then trampoline
	// bodies, then the shift table blob. Entry and code symbols are
	// remapped to naturalized addresses.
	Program *image.Program
	// Orig is the input program (untouched).
	Orig *image.Program
	// Patches indexed by local id.
	Patches []*Patch
	// Shift maps original word addresses to naturalized ones.
	Shift *ShiftTable
	// Relocs lists word addresses (program-relative) of JMP/CALL address
	// words that the linker must offset by the flash base.
	Relocs []uint32
	// Region sizes in words.
	CodeWords, TrampolineWords, ShiftWords int
	// Trampolines lists the merged trampoline bodies (for size reporting).
	Trampolines []Trampoline
}

// Trampoline is one merged trampoline body.
type Trampoline struct {
	Key   string
	Words int
	Sites int // how many patch sites share it
}

// Clone returns an independent copy of the naturalized program, for handing
// one cached rewrite to many concurrent sweep points. The image (which the
// kernel links against a flash base) is deep-copied; Patches, the shift
// table, and Orig are immutable after Rewrite and are shared.
func (n *Naturalized) Clone() *Naturalized {
	c := *n
	c.Program = n.Program.Clone()
	c.Patches = append([]*Patch(nil), n.Patches...)
	c.Relocs = append([]uint32(nil), n.Relocs...)
	c.Trampolines = append([]Trampoline(nil), n.Trampolines...)
	return &c
}

// Config controls rewriting. The zero value gives the paper's behaviour.
type Config struct {
	// NoGrouping disables the grouped-memory-access optimization
	// (Section IV-C2), for ablation studies.
	NoGrouping bool
	// NoTrampolineMerge disables merging of identical trampolines, for
	// ablation studies.
	NoTrampolineMerge bool
	// GroupLimit caps the length of a grouped memory-access run, at most
	// MaxGroup; 0 means MaxGroup.
	GroupLimit int
}

// MaxGroup is the longest grouped memory-access run. The paper observes
// 2- or 4-instruction groups, and the kernel's trap descriptor holds four.
const MaxGroup = 4

func (c Config) groupLimit() int {
	if c.GroupLimit <= 0 {
		return MaxGroup
	}
	return c.GroupLimit
}

// reservedDataAddrs are the Timer3 registers the kernel reserves as its
// global clock; application access traps into the virtualization service.
var reservedDataAddrs = map[uint16]bool{
	ioregs.TCNT3L: true,
	ioregs.TCNT3H: true,
	ioregs.TCCR3B: true,
	ioregs.ETIFR:  true,
	ioregs.ETIMSK: true,
}

// ReservedDataAddr reports whether a data address belongs to the
// kernel-reserved Timer3 register set.
func ReservedDataAddr(addr uint16) bool { return reservedDataAddrs[addr] }

// unit is one original-program element: an instruction or a data word.
type unit struct {
	pc     uint32 // original word address
	in     avr.Inst
	isData bool
	raw    uint16 // data word contents

	patch  *Patch // non-nil once the unit is patched (set on group leaders)
	member bool   // true for non-leader members of a grouped access
	natPC  uint32
	words  int // naturalized slot size in words
}

// Rewrite naturalizes prog for execution under the SenSmart kernel.
func Rewrite(prog *image.Program, cfg Config) (*Naturalized, error) {
	if cfg.GroupLimit > MaxGroup {
		return nil, fmt.Errorf("rewriter: group limit %d above %d", cfg.GroupLimit, MaxGroup)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	units, index, err := decodeUnits(prog)
	if err != nil {
		return nil, err
	}
	leaders := findLeaders(prog, units, index)

	// Initial classification.
	for i := range units {
		u := &units[i]
		if u.isData || u.member || u.patch != nil {
			continue
		}
		classifyUnit(units, i, index, leaders, cfg)
	}

	// Fixpoint: lay out addresses, then patch any kept relative branch whose
	// displacement no longer encodes; repeat until stable.
	for {
		layout(units)
		again, err := patchOverflowingBranches(units, index)
		if err != nil {
			return nil, err
		}
		if !again {
			break
		}
	}

	return emit(prog, units, index, cfg)
}

// decodeUnits walks the program and decodes every instruction, honouring the
// data-in-text ranges from the symbol information.
func decodeUnits(prog *image.Program) ([]unit, map[uint32]int, error) {
	var units []unit
	index := make(map[uint32]int)
	for pc := uint32(0); pc < uint32(len(prog.Words)); {
		index[pc] = len(units)
		if prog.InTextData(pc) {
			units = append(units, unit{pc: pc, isData: true, raw: prog.Words[pc], words: 1})
			pc++
			continue
		}
		in, err := avr.Decode(prog.Words[pc:])
		if err != nil {
			return nil, nil, fmt.Errorf("rewriter: %s: decode at %#x: %w", prog.Name, pc, err)
		}
		if in.Op == avr.OpKtrap {
			// Application images never contain KTRAP: this is a plain BREAK
			// whose following word happened to look like a service id.
			in = avr.Inst{Op: avr.OpBreak}
		}
		units = append(units, unit{pc: pc, in: in, words: in.Words()})
		pc += uint32(in.Words())
	}
	return units, index, nil
}

// findLeaders computes basic-block leader addresses: the entry, all code
// symbols (indirect-branch targets), static branch targets, fall-throughs of
// control transfers, and both successors of skip instructions.
func findLeaders(prog *image.Program, units []unit, index map[uint32]int) map[uint32]bool {
	leaders := map[uint32]bool{prog.Entry: true, 0: true}
	for _, s := range prog.Symbols {
		if s.Kind == image.SymCode {
			leaders[s.Addr] = true
		}
	}
	for i := range units {
		u := &units[i]
		if u.isData {
			continue
		}
		next := u.pc + uint32(u.in.Words())
		switch {
		case u.in.IsBranch() || u.in.Op == avr.OpRcall:
			leaders[u.in.RelTarget(u.pc)] = true
			leaders[next] = true
		case u.in.Op == avr.OpJmp || u.in.Op == avr.OpCall:
			leaders[uint32(u.in.Imm)] = true
			leaders[next] = true
		case u.in.IsSkip():
			// Both the possibly-skipped instruction and the skip-over
			// target are leaders, so grouped accesses never straddle them.
			leaders[next] = true
			if j, ok := index[next]; ok && !units[j].isData {
				leaders[next+uint32(units[j].in.Words())] = true
			}
		case u.in.IsControlTransfer():
			leaders[next] = true
		}
	}
	return leaders
}

// classifyUnit decides whether units[i] needs patching and installs the
// patch record (including grouped runs).
func classifyUnit(units []unit, i int, index map[uint32]int, leaders map[uint32]bool, cfg Config) {
	u := &units[i]
	in := u.in
	switch {
	case in.IsMemAccess() && !in.IsDirectMem():
		group := []avr.Inst{in}
		if !cfg.NoGrouping {
			ptr, _ := in.PointerReg()
			clobbers := func(g avr.Inst) bool {
				return g.IsLoad() && (g.Dst == ptr || g.Dst == ptr+1)
			}
			for j := i + 1; j < len(units) && len(group) < cfg.groupLimit(); j++ {
				// Once any member has loaded into the pointer register, the
				// shared translation no longer describes later accesses.
				if clobbers(group[len(group)-1]) {
					break
				}
				next := &units[j]
				if next.isData || leaders[next.pc] {
					break
				}
				nin := next.in
				if !nin.IsMemAccess() || nin.IsDirectMem() {
					break
				}
				if p, _ := nin.PointerReg(); p != ptr {
					break
				}
				group = append(group, nin)
				next.member = true
			}
		}
		u.patch = &Patch{Class: ClassIndirectMem, Orig: in, OrigPC: u.pc, Group: group}

	case in.Op == avr.OpLds || in.Op == avr.OpSts:
		addr := uint16(in.Imm)
		switch {
		case ReservedDataAddr(addr):
			u.patch = &Patch{Class: ClassReservedIO, Orig: in, OrigPC: u.pc}
		case addr < 0x100:
			u.patch = &Patch{Class: ClassDirectIO, Orig: in, OrigPC: u.pc}
		default:
			u.patch = &Patch{Class: ClassDirectMem, Orig: in, OrigPC: u.pc}
		}

	case in.IsBranch():
		target := in.RelTarget(u.pc)
		if target <= u.pc { // backward: preemption trap site
			u.patch = &Patch{Class: ClassBranch, Orig: in, OrigPC: u.pc,
				OrigTarget: target, Backward: true}
		}

	case in.Op == avr.OpJmp:
		if uint32(in.Imm) <= u.pc {
			u.patch = &Patch{Class: ClassBranch, Orig: in, OrigPC: u.pc,
				OrigTarget: uint32(in.Imm), Backward: true}
		}

	case in.Op == avr.OpCall:
		u.patch = &Patch{Class: ClassCall, Orig: in, OrigPC: u.pc, OrigTarget: uint32(in.Imm)}
	case in.Op == avr.OpRcall:
		u.patch = &Patch{Class: ClassCall, Orig: in, OrigPC: u.pc, OrigTarget: in.RelTarget(u.pc)}
	case in.Op == avr.OpIcall:
		u.patch = &Patch{Class: ClassIndirectCall, Orig: in, OrigPC: u.pc}
	case in.Op == avr.OpIjmp:
		u.patch = &Patch{Class: ClassIndirectJump, Orig: in, OrigPC: u.pc}

	case in.ReadsSP():
		u.patch = &Patch{Class: ClassSPRead, Orig: in, OrigPC: u.pc}
	case in.WritesSP():
		u.patch = &Patch{Class: ClassSPWrite, Orig: in, OrigPC: u.pc}

	case in.Op == avr.OpSleep:
		u.patch = &Patch{Class: ClassSleep, Orig: in, OrigPC: u.pc}

	case in.Op == avr.OpLpm || in.Op == avr.OpLpmZ || in.Op == avr.OpLpmZInc:
		u.patch = &Patch{Class: ClassLpm, Orig: in, OrigPC: u.pc}

	case in.Op == avr.OpBreak:
		u.patch = &Patch{Class: ClassExit, Orig: in, OrigPC: u.pc}
	}
	if u.patch != nil && u.patch.Group == nil {
		u.patch.Group = []avr.Inst{in}
	}
}

// layout assigns naturalized addresses: patched slots are 2 words (KTRAP),
// everything else keeps its size; grouped members keep their original bytes.
func layout(units []unit) {
	nat := uint32(0)
	for i := range units {
		u := &units[i]
		u.natPC = nat
		if u.patch != nil {
			u.words = 2
		} else {
			u.words = u.in.Words()
			if u.isData {
				u.words = 1
			}
		}
		nat += uint32(u.words)
	}
}

// patchOverflowingBranches finds kept relative branches whose displacement
// no longer fits after inflation and converts them to ClassBranch patches.
// It reports whether anything changed.
func patchOverflowingBranches(units []unit, index map[uint32]int) (bool, error) {
	changed := false
	for i := range units {
		u := &units[i]
		if u.isData || u.patch != nil || u.member {
			continue
		}
		if !u.in.IsBranch() {
			continue
		}
		target := u.in.RelTarget(u.pc)
		j, ok := index[target]
		if !ok {
			return false, fmt.Errorf("rewriter: branch at %#x targets mid-instruction %#x", u.pc, target)
		}
		disp := int64(units[j].natPC) - int64(u.natPC) - 1
		var fits bool
		switch u.in.Op {
		case avr.OpRjmp:
			fits = disp >= -2048 && disp <= 2047
		default: // BRBS/BRBC
			fits = disp >= -64 && disp <= 63
		}
		if !fits {
			u.patch = &Patch{Class: ClassBranch, Orig: u.in, OrigPC: u.pc,
				OrigTarget: target, Group: []avr.Inst{u.in}}
			changed = true
		}
	}
	return changed, nil
}
