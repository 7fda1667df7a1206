package mcu

import (
	"repro/internal/avr"
	"repro/internal/ioregs"
)

// Basic-block superinstruction translation: the fused tier of RunUntil.
// Executing one predecoded micro-op at a time pays a fixed toll per
// instruction: a cache fetch, a dispatch branch, an SREG read-modify-write
// through memory, and the run loop's ladder. Hot straight-line runs amortize
// all of it: once a control-transfer landing point (a leader) has been
// reached often enough, the block from that leader to its next terminator is
// translated into a fused superinstruction — a flat []fop executed
// straight-line with SREG held in a local, cycles charged from a precomputed
// running sum, PC and the instruction counter flushed once per block, dead
// flag computations folded away, and a single worst-case cycle check per
// block instead of one per instruction.
//
// Safety rules, in order of importance:
//
//   - Everything the fused tier does not take runs on Step, the checked
//     path: stepwise mode, a profiler, interrupt delivery, sleep, a due hook,
//     and every leader the fused tier declines, until the next control
//     transfer. No observer but the profiler needs a per-instruction event,
//     so a recorder, a sampler, a checkpoint or an energy meter runs on
//     both tiers with byte-identical streams.
//   - A block never contains a checked op (KTRAP, SLEEP), a BREAK, or an op
//     whose I/O side effects can reschedule device events (SBI/CBI/STS to
//     a device register, and every indirect store, whose target is dynamic).
//     Control transfers and device-writing stores may only appear as the
//     block's terminator, executed with all machine state flushed — so
//     mid-block, dev.nextEvent moves only at an OUT to a device register,
//     which re-checks the stop cycle inline (fOutDev). A lone terminator is
//     a zero-op block, so only a SLEEP, BREAK or undecodable leader is
//     dead.
//   - A block is dispatched only when its worst-case cycle count fits
//     strictly before the stop cycle: the device horizon, tightened to the
//     run's budget and to the hook schedule's due cycle. Every boundary the
//     run loop observes (sampler, checkpoint, injection, horizon sync)
//     therefore lands on exactly the cycle per-instruction execution reaches,
//     because Step finishes whatever a block cannot.
//   - Faultable ops (SRAM loads/stores, push/pop) flush cycle, PC, and SREG
//     before calling the shared guarded helpers, so a mid-block fault leaves
//     precisely the architectural state Step would have left.
//   - The block cache is derived state, like the micro-op cache: flash writes
//     kill every overlapping block (LoadFlash), SetTrapHandler and
//     AdoptImage/RestoreState flush it, and snapshots never carry it.

// DefaultTranslationThreshold is the number of control-transfer landings at
// a PC before the block starting there is translated. Low enough that hot
// loops translate within their first few hundred iterations, high enough
// that straight-line startup code never pays for translation.
const DefaultTranslationThreshold = 32

const (
	// maxBlockOps caps the fused ops per block; with the worst 3-cycle op
	// that bounds a block's wcet far below the shortest device span (1280
	// cycles for a UART byte), keeping the one-check-per-block precheck
	// meaningful.
	maxBlockOps = 64
	// xlDead marks a leader whose block is untranslatable (a SLEEP, BREAK
	// or undecodable word).
	xlDead = int32(-1) << 30
)

// Fused-op codes. Each is one straight-line micro-op specialized at
// translation time: I/O operands are pre-classified (plain data byte,
// SREG-local, cycle-sensitive device register), so runBlock's switch does no
// address dispatch of its own.
const (
	fNop uint8 = iota
	fAdd
	fAdc
	fSub
	fSbc
	fCp
	fCpc
	fSubi
	fCpi
	fSbci
	fAnd
	fAndi
	fOr
	fOri
	fEor
	fCom
	fNeg
	fMov
	fMovw
	fLdi
	fSwap
	fInc
	fDec
	fAsr
	fLsr
	fRor
	fMul
	fAdiw
	fSbiw
	fBset
	fBclr
	fInData  // IN from a plain register/IO byte
	fInSreg  // IN from SREG: reads the block-local flags
	fInDev   // IN from a cycle-sensitive device register (flush cycle first)
	fOutData // OUT to a plain register/IO byte
	fOutSreg // OUT to SREG: writes the block-local flags
	fOutDev  // OUT to a device register: flush, write, re-check the horizon
	fSbiData // SBI/CBI on a plain IO byte (direct RMW)
	fCbiData
	fLdsData // LDS from a plain register/IO byte
	fLdsSreg
	fLdsDev
	fLdsRAM // LDS from SRAM (guard + watchpoints via loadByte)
	fStsData
	fStsSreg
	fStsRAM
	fLdInd // LD through X/Y/Z (+variants): dynamic address via loadByte
	fLdIndInc
	fLdIndDec
	fLdd
	fPush
	fPop
	fLpm
	fLpmZ
	fLpmZInc
)

// fop is one fused micro-op. Like uop it is pointer-free, so translated
// blocks add nothing to garbage-collector scans.
type fop struct {
	code uint8
	d, s uint8  // destination / source or pointer register
	k    byte   // immediate or bit mask
	fold bool   // flag result proven dead: skip the SREG computation
	a    uint16 // absolute data address / IO address / LDD displacement
	cum  uint16 // running cycle total through this op (flush value)
	pc   uint32 // fetch PC (flushed before faultable helpers)
}

// Terminator kinds. Direct jumps, conditional branches, and skips fuse into
// the block itself — their targets (and, for skips, the length of the
// skipped instruction) are derived only from words inside the block's
// [leader, end) invalidation span, so a stale fused target or skip distance
// cannot survive a flash patch. A skip whose successor is a direct jump
// fuses the pair (the `sbrs/rjmp` device-poll idiom becomes one conditional
// jump). Everything else (calls, returns, device writes, IJMP) executes
// through the dispatch table with flushed state.
const (
	tkNone     uint8 = iota // no terminator: fall through to fallPC
	tkDispatch              // run the terminator uop via the dispatch table
	tkJmp                   // RJMP/JMP: fused unconditional jump
	tkBr                    // BRBS/BRBC: fused conditional branch on termK
	tkSkip                  // CPSE/SBRC/SBRS/SBIC/SBIS: fused skip
	tkSkipJmp               // fused skip over RJMP/JMP: conditional jump pair
	tkTrap                  // KTRAP: kernel trap, then re-check the ladder
	tkSkipTrap              // fused skip over a KTRAP: the device-poll idiom
)

// Skip-condition operand sources for tkSkip/tkSkipJmp.
const (
	scReg   uint8 = iota // data[termD] & termK (SBRS/SBRC)
	scIO                 // data[termA] & termK, plain IO byte (SBIS/SBIC)
	scIODev              // readIO(termA) & termK, device reg: flush cycle
	scRegEq              // data[termD] == data[termS] (CPSE)
)

// block is one translated basic block.
type block struct {
	leader   uint32 // first word of the block
	end      uint32 // first word past the block (terminator + skipped inst)
	termPC   uint32 // terminator fetch PC, valid when termKind != tkNone
	fallPC   uint32 // resume PC (fall-through / branch or skip not taken)
	skipTo   uint32 // tkSkip/tkSkipJmp: resume PC when the skip is taken
	termTo   uint32 // tkJmp/tkBr: branch target; tkSkipJmp: the jump's target
	termKind uint8
	termCond uint8 // tkSkip/tkSkipJmp: scReg/scIO/scIODev/scRegEq
	termNeg  bool  // tkSkip/tkSkipJmp: skip when the tested bit is CLEAR
	termSet  bool  // tkBr: branch when the masked bit is set (BRBS)
	termK    byte  // tkBr: SREG mask; tkSkip*: operand bit mask
	termD    uint8 // tkSkip* register operand(s)
	termS    uint8
	termA    uint16 // tkSkip IO operand address; tkTrap/tkSkipTrap: trap index
	termCyc  uint8  // fused terminator base cycle cost
	termSkpW uint8  // tkSkip*: words skipped (cycle surcharge)
	termJCyc uint8  // tkSkipJmp: the fused jump's cycle cost; tkSkipTrap: the trap's
	// bodyCycles is the cycle cost of the fused body; wcet adds the
	// terminator's worst case (branch taken, longest skip), bounding how
	// far a whole-block dispatch can advance the clock.
	bodyCycles uint16
	wcet       uint16
	ops        []fop
}

// translator is the per-machine block cache. idx maps each flash word to its
// translation state: 0 = never landed on, negative = landing countdown
// toward the threshold, xlDead = untranslatable, positive = 1-based index
// into blocks. It is paged like flash (an absent page is all cold leaders)
// and private to its machine (never shared by AdoptImage).
type translator struct {
	blocks    []*block
	free      []int32 // reusable nil slots in blocks (indices stay stable)
	threshold int32

	built       uint64
	invalidated uint64
	dispatches  uint64
	fusedInsts  uint64

	idx [numPages]*page[int32]
}

func newTranslator(threshold int32) *translator {
	return &translator{idx: erasedIdxTable, threshold: threshold}
}

// at returns the translation state of the word at pc.
func (x *translator) at(pc uint32) int32 { return x.idx[pageOf(pc)].v[pc%pageWords] }

// set records the translation state of the word at pc.
func (x *translator) set(pc uint32, e int32) { ownPage(&x.idx, pageOf(pc)).v[pc%pageWords] = e }

// reset drops every block and landing counter (image swap, trap-handler
// change, snapshot restore). Cumulative stats survive; live blocks count as
// invalidated.
func (x *translator) reset() {
	for _, b := range x.blocks {
		if b != nil {
			x.invalidated++
		}
	}
	x.blocks = x.blocks[:0]
	x.free = x.free[:0]
	x.idx = erasedIdxTable
}

// invalidate kills every block overlapping the flash words [base, end).
// A block's [leader, end) range covers both words of a two-word instruction,
// so patching only the second word (the base-1 case LoadFlash handles for
// uops) overlaps and kills the block that fused it. Landing counters inside
// the rewritten range (and the base-1 word) reset too: rewritten code may be
// translatable where the old code was not.
func (x *translator) invalidate(base, end uint32) {
	for i, b := range x.blocks {
		if b != nil && b.leader < end && b.end > base {
			x.set(b.leader, 0)
			x.blocks[i] = nil
			x.free = append(x.free, int32(i))
			x.invalidated++
		}
	}
	lo := base
	if lo > 0 {
		lo--
	}
	for pc := lo; pc < end && pc < FlashWords; pc++ {
		if x.at(pc) < 0 {
			x.set(pc, 0)
		}
	}
}

// SetTranslation sets the block-translation threshold: a block is translated
// once its leader has been landed on threshold times (1 = on first landing;
// zero or less selects DefaultTranslationThreshold). Reconfiguring drops any
// existing blocks and counters.
func (m *Machine) SetTranslation(threshold int) {
	if threshold <= 0 {
		threshold = DefaultTranslationThreshold
	}
	m.xl = newTranslator(int32(threshold))
}

// TranslationStats reports block-cache activity since the machine was
// created (counters survive cache flushes).
type TranslationStats struct {
	// Blocks is the live translated-block count.
	Blocks int
	// Built counts blocks ever translated; Invalidations counts blocks
	// killed by flash writes, image swaps, or snapshot restores.
	Built         uint64
	Invalidations uint64
	// FusedDispatches counts whole-block executions; FusedInsts counts the
	// instructions retired inside them (the numerator of the fused-dispatch
	// fraction against Instructions()).
	FusedDispatches uint64
	FusedInsts      uint64
}

// TranslationStats returns the block-cache counters.
func (m *Machine) TranslationStats() TranslationStats {
	live := 0
	for _, b := range m.xl.blocks {
		if b != nil {
			live++
		}
	}
	return TranslationStats{
		Blocks:          live,
		Built:           m.xl.built,
		Invalidations:   m.xl.invalidated,
		FusedDispatches: m.xl.dispatches,
		FusedInsts:      m.xl.fusedInsts,
	}
}

// devReadReg reports whether reading data-space address a consults the cycle
// clock or mutates device state (the readIO special cases), so a fused read
// must flush the clock and go through readIO.
func devReadReg(a uint16) bool {
	switch a {
	case IOBase + ioregs.TCNT0, IOBase + ioregs.ADCSRA, IOBase + ioregs.UCSR0A,
		IOBase + ioregs.RSR, IOBase + ioregs.RDR, ioregs.TCNT3L, ioregs.TCNT3H:
		return true
	}
	return false
}

// devWriteReg reports whether writing data-space address a has device side
// effects (the writeIO special cases, which can reschedule dev.nextEvent) —
// such writes terminate a block.
func devWriteReg(a uint16) bool {
	switch a {
	case IOBase + ioregs.TCCR0, IOBase + ioregs.TCNT0, IOBase + ioregs.TIFR,
		IOBase + ioregs.ADCSRA, IOBase + ioregs.UDR0, IOBase + ioregs.RDR:
		return true
	}
	return false
}

// isHazardTerm reports whether u must end its block as the terminator: its
// store side effects may hit a device register (rescheduling events), which
// is only safe with all machine state flushed and the block precheck re-run.
// Indirect stores are conservatively hazardous — their target is dynamic.
// OUT to a device register is NOT a terminator: it fuses as fOutDev, which
// flushes, writes, and re-checks the (possibly rescheduled) horizon inline.
func isHazardTerm(u *uop) bool {
	switch u.in.Op {
	case avr.OpSbi, avr.OpCbi:
		return devWriteReg(u.a) || devReadReg(u.a)
	case avr.OpSts:
		return u.a < SRAMBase && devWriteReg(u.a)
	case avr.OpStX, avr.OpStXInc, avr.OpStXDec, avr.OpStYInc, avr.OpStYDec,
		avr.OpStdY, avr.OpStZInc, avr.OpStZDec, avr.OpStdZ:
		return true
	}
	return false
}

// termWorstCycles is the terminator's worst-case cycle cost: base plus the
// branch-taken extra or the longest (two-word) skip.
func termWorstCycles(u *uop) uint16 {
	c := uint16(u.cycles)
	switch u.in.Op {
	case avr.OpBrbs, avr.OpBrbc:
		return c + 1
	case avr.OpCpse, avr.OpSbrc, avr.OpSbrs, avr.OpSbic, avr.OpSbis:
		return c + 2
	}
	return c
}

// emitFop specializes one micro-op into its fused form. ok=false means the
// op cannot appear in a block body (the block ends before it).
func emitFop(u *uop) (f fop, ok bool) {
	f = fop{d: u.d, s: u.s, a: u.a, k: u.k}
	ok = true
	switch u.in.Op {
	case avr.OpNop, avr.OpWdr:
		f.code = fNop
	case avr.OpAdd:
		f.code = fAdd
	case avr.OpAdc:
		f.code = fAdc
	case avr.OpSub:
		f.code = fSub
	case avr.OpSbc:
		f.code = fSbc
	case avr.OpCp:
		f.code = fCp
	case avr.OpCpc:
		f.code = fCpc
	case avr.OpSubi:
		f.code = fSubi
	case avr.OpCpi:
		f.code = fCpi
	case avr.OpSbci:
		f.code = fSbci
	case avr.OpAnd:
		f.code = fAnd
	case avr.OpAndi:
		f.code = fAndi
	case avr.OpOr:
		f.code = fOr
	case avr.OpOri:
		f.code = fOri
	case avr.OpEor:
		f.code = fEor
	case avr.OpCom:
		f.code = fCom
	case avr.OpNeg:
		f.code = fNeg
	case avr.OpMov:
		f.code = fMov
	case avr.OpMovw:
		f.code = fMovw
	case avr.OpLdi:
		f.code = fLdi
	case avr.OpSwap:
		f.code = fSwap
	case avr.OpInc:
		f.code = fInc
	case avr.OpDec:
		f.code = fDec
	case avr.OpAsr:
		f.code = fAsr
	case avr.OpLsr:
		f.code = fLsr
	case avr.OpRor:
		f.code = fRor
	case avr.OpMul:
		f.code = fMul
	case avr.OpAdiw:
		f.code = fAdiw
	case avr.OpSbiw:
		f.code = fSbiw
	case avr.OpBset:
		f.code = fBset
	case avr.OpBclr:
		f.code = fBclr
	case avr.OpIn:
		switch {
		case u.a == addrSREG:
			f.code = fInSreg
		case devReadReg(u.a):
			f.code = fInDev
		default:
			f.code = fInData
		}
	case avr.OpOut:
		switch {
		case u.a == addrSREG:
			f.code = fOutSreg
		case devWriteReg(u.a):
			f.code = fOutDev
		default:
			f.code = fOutData
		}
	case avr.OpSbi:
		f.code = fSbiData
	case avr.OpCbi:
		f.code = fCbiData
	case avr.OpLds:
		switch {
		case u.a == addrSREG:
			f.code = fLdsSreg
		case u.a >= SRAMBase:
			f.code = fLdsRAM
		case devReadReg(u.a):
			f.code = fLdsDev
		default:
			f.code = fLdsData
		}
	case avr.OpSts:
		switch {
		case u.a == addrSREG:
			f.code = fStsSreg
		case u.a >= SRAMBase:
			f.code = fStsRAM
		default:
			f.code = fStsData
		}
	case avr.OpLdX, avr.OpLddY, avr.OpLddZ:
		if u.in.Op == avr.OpLdX {
			f.a = 0 // plain LD has no displacement; share the fLdd shape
		}
		f.code = fLdd
	case avr.OpLdXInc, avr.OpLdYInc, avr.OpLdZInc:
		f.code = fLdIndInc
	case avr.OpLdXDec, avr.OpLdYDec, avr.OpLdZDec:
		f.code = fLdIndDec
	case avr.OpPush:
		f.code = fPush
	case avr.OpPop:
		f.code = fPop
	case avr.OpLpm:
		f.code = fLpm
	case avr.OpLpmZ:
		f.code = fLpmZ
	case avr.OpLpmZInc:
		f.code = fLpmZInc
	default:
		ok = false
	}
	return f, ok
}

// Flag-mask groups for the liveness pass.
const (
	arithFlags = flagC | flagZ | flagN | flagV | flagS | flagH
	logicFlagM = flagZ | flagN | flagV | flagS
	shiftFlagM = logicFlagM | flagC
	allFlags   = byte(0xFF)
)

// fopFlags returns the SREG bits a fused op reads and writes, for dead-flag
// folding. Ops that flush SREG to memory (faultable helpers) are handled as
// barriers by foldFlags itself.
func fopFlags(code uint8, k byte) (r, w byte) {
	switch code {
	case fAdd, fSub, fCp, fSubi, fCpi, fNeg:
		w = arithFlags
	case fAdc:
		r, w = flagC, arithFlags
	case fSbc, fSbci, fCpc:
		r, w = flagC|flagZ, arithFlags
	case fAnd, fAndi, fOr, fOri, fEor, fInc, fDec:
		w = logicFlagM
	case fCom, fAsr, fLsr, fAdiw, fSbiw:
		w = shiftFlagM
	case fRor:
		r, w = flagC, shiftFlagM
	case fMul:
		w = flagC | flagZ
	case fBset, fBclr:
		w = k
	case fInSreg, fLdsSreg:
		r = allFlags
	case fOutSreg, fStsSreg:
		w = allFlags
	}
	return r, w
}

// fopFaultable reports whether the fused op calls a guarded helper that can
// fault (and therefore flushes and reloads SREG around the call), or can
// leave the block early (fOutDev's horizon re-check) — every point where the
// architectural SREG must be exact.
func fopFaultable(code uint8) bool {
	switch code {
	case fLdsRAM, fStsRAM, fLdInd, fLdIndInc, fLdIndDec, fLdd, fPush, fPop,
		fOutDev:
		return true
	}
	return false
}

// fopFoldable reports whether skipping the op's flag computation is the only
// effect of folding (pure ALU flag writers; compares become full no-ops).
func fopFoldable(code uint8) bool {
	switch code {
	case fAdd, fAdc, fSub, fSbc, fCp, fCpc, fSubi, fCpi, fSbci,
		fAnd, fAndi, fOr, fOri, fEor, fCom, fNeg, fInc, fDec,
		fAsr, fLsr, fRor, fMul, fAdiw, fSbiw, fBset, fBclr:
		return true
	}
	return false
}

// foldFlags runs a backward dead-flag pass over the block body: an op whose
// entire flag result is overwritten before any read (within the block, with
// all flags live at block exit and at every fault point) skips its SREG
// computation at run time.
func foldFlags(b *block) {
	var dead byte
	for i := len(b.ops) - 1; i >= 0; i-- {
		f := &b.ops[i]
		r, w := fopFlags(f.code, f.k)
		if w != 0 && w&^dead == 0 && fopFoldable(f.code) {
			f.fold = true
		}
		dead = (dead | w) &^ r
		if fopFaultable(f.code) {
			// A fault mid-block must leave SREG architecturally exact, so
			// every flag is live at this point.
			dead = 0
		}
	}
}

// translateBlock builds the basic block whose leader is at pc, or nil when
// the leader is a SLEEP, BREAK or undecodable word. Discovery walks the
// predecoded micro-ops (building them as needed), stops before those words
// and at page boundaries, and absorbs the first control transfer, KTRAP or
// device-writing store as the terminator.
func (m *Machine) translateBlock(leader uint32) *block {
	b := &block{leader: leader}
	pageEnd := (leader/pageWords + 1) * pageWords
	pc := leader
	var cum uint16
	for {
		if pc >= pageEnd || len(b.ops) == maxBlockOps {
			b.fallPC = pc & (FlashWords - 1)
			b.end = pc
			break
		}
		u, err := m.fetchUop(pc)
		if err != nil || u.checked || u.in.Op == avr.OpBreak {
			if err == nil && u.in.Op == avr.OpKtrap {
				// A kernel trap terminates the block. The trap index and
				// base cycle cost are captured here so dispatch can call
				// the handler directly — exactly execKtrap with flushed
				// state — and re-run the ladder's checks afterwards.
				// The trap service's own cycle charges land after the
				// horizon precheck, as they do under Step, so wcet stays the
				// body cost alone.
				b.termPC = pc
				b.end = pc + uint32(u.in.Op.Words())
				b.termKind = tkTrap
				b.termCyc = u.cycles
				b.termA = uint16(u.in.Imm)
				b.wcet = cum
				break
			}
			// Step must reach this word itself (fault, sleep,
			// undecodable): end the block before it.
			b.fallPC = pc
			b.end = pc
			break
		}
		words := uint32(u.in.Op.Words())
		if u.ctl || isHazardTerm(u) {
			b.termPC = pc
			b.end = pc + words
			b.wcet = cum + termWorstCycles(u)
			switch u.in.Op {
			case avr.OpRjmp, avr.OpJmp:
				b.termKind = tkJmp
				b.termTo = u.target
				b.termCyc = u.cycles
			case avr.OpBrbs, avr.OpBrbc:
				b.termKind = tkBr
				b.termTo = u.target
				b.fallPC = u.next
				b.termK = u.k
				b.termSet = u.in.Op == avr.OpBrbs
				b.termCyc = u.cycles
			case avr.OpCpse, avr.OpSbrc, avr.OpSbrs, avr.OpSbic, avr.OpSbis:
				// The skip distance is the length of the next instruction, so
				// fusing it bakes in a decode of that word: extend end over it
				// so a patch there kills the block (exactly mirroring the
				// dynamic m.skip). An undecodable successor stays dynamic —
				// the dispatched skip handles it.
				nu, nerr := m.fetchUop(u.next)
				if nerr != nil {
					b.termKind = tkDispatch
					break
				}
				skipW := uint32(nu.in.Op.Words())
				b.termKind = tkSkip
				b.fallPC = u.next
				b.skipTo = (u.next + skipW) & (FlashWords - 1)
				b.end = pc + words + skipW
				b.termCyc = u.cycles
				b.termSkpW = uint8(skipW)
				switch u.in.Op {
				case avr.OpCpse:
					b.termCond = scRegEq
					b.termD, b.termS = u.d, u.s
				case avr.OpSbrc, avr.OpSbrs:
					b.termCond = scReg
					b.termD, b.termK = u.d, u.k
					b.termNeg = u.in.Op == avr.OpSbrc
				default:
					b.termCond = scIO
					if devReadReg(u.a) {
						b.termCond = scIODev
					}
					b.termA, b.termK = u.a, u.k
					b.termNeg = u.in.Op == avr.OpSbic
				}
				if nu.in.Op == avr.OpRjmp || nu.in.Op == avr.OpJmp {
					// Skip over a direct jump — the `sbrs; rjmp back`
					// device-poll idiom. Fuse the pair: the not-skipped path
					// executes the jump too, so the block's successors are
					// two fixed PCs and a spin loop becomes a self-loop.
					b.termKind = tkSkipJmp
					b.termTo = nu.target
					b.termJCyc = nu.cycles
				} else if nu.in.Op == avr.OpKtrap &&
					(b.termCond == scReg || b.termCond == scRegEq) {
					// Skip over a kernel trap — the same poll idiom after
					// the rewriter has virtualized the backward jump. Fuse
					// the pair: the not-skipped path services the trap
					// inline, exactly as tkTrap does, instead of bouncing
					// through a separate one-trap block. Register
					// conditions only: the IO conditions need termA for
					// their operand address, the trap for its index.
					b.termKind = tkSkipTrap
					b.termA = uint16(nu.in.Imm)
					b.termJCyc = nu.cycles
				}
				wc := uint16(b.termSkpW)
				if b.termKind == tkSkipJmp && uint16(b.termJCyc) > wc {
					wc = uint16(b.termJCyc)
				}
				b.wcet = cum + uint16(u.cycles) + wc
			default:
				b.termKind = tkDispatch
			}
			break
		}
		f, ok := emitFop(u)
		if !ok {
			b.fallPC = pc
			b.end = pc
			break
		}
		cum += uint16(u.cycles)
		f.cum = cum
		f.pc = pc
		b.ops = append(b.ops, f)
		pc += words
	}
	if len(b.ops) == 0 && b.termKind == tkNone {
		// An immediate stop: the leader is Step's to execute. A lone
		// terminator is kept as a zero-op block, so runTranslated chains
		// through it (virtualized branches land on trap after trap).
		return nil
	}
	b.bodyCycles = cum
	if b.termKind == tkNone {
		b.wcet = cum
	}
	foldFlags(b)
	return b
}

// ladderDue reports whether RunUntil's ladder has work to do right now — a
// fault, sleep, or pending interrupt to examine, stepwise mode or a profiler
// that keeps execution on Step, or a due hook. Block chaining across kernel
// traps re-checks exactly this set, because a trap service can leave any of
// it behind, arming a hook included.
func (m *Machine) ladderDue() bool {
	return m.fault != nil || m.sleeping || m.pending != 0 ||
		m.stepwise || m.profInstr != nil || m.cycle >= m.due
}

// nextPC is the architectural PC after the op at index i — where Step
// would resume if the block stopped right after it.
func (b *block) nextPC(i int) uint32 {
	if i+1 < len(b.ops) {
		return b.ops[i+1].pc
	}
	if b.termKind != tkNone {
		return b.termPC
	}
	return b.fallPC
}

// runTranslated dispatches translated blocks for as long as the PC keeps
// landing on leaders whose worst-case cycle cost fits strictly before stop
// (the device horizon, the run's limit and the due cycle). It also carries
// the landing counters: RunUntil calls it at every ladder pass that reaches
// the fused tier and after every control transfer Step executes, which is
// exactly the leader definition. It is one flat chaining loop: SREG, the
// instruction count, and the dispatch stats live in locals across
// consecutive blocks, and are flushed only at kernel traps (whose services
// observe machine state), at dispatch-table terminators, and on exit. Fault
// paths flush before their guarded helpers exactly as Step would. A trap
// terminator calls the handler directly with everything flushed — exactly
// execKtrap — then re-checks the ladder (halt=true: the caller must hand
// control back to the ladder). Returns halt=false on a cold or dead leader
// or a block that does not fit: RunUntil then Steps to the next control
// transfer.
func (m *Machine) runTranslated(limit uint64) (halt bool, err error) {
	x := m.xl
	sreg := m.data[addrSREG]
	var done, fused, iters uint64
	var b *block
	// The first cycle a block body must not reach. Fused ops cannot move
	// dev.nextEvent or arm a hook, so stop stays valid across chained
	// dispatches and is refreshed only where it can move: kernel traps,
	// dispatch-table terminators, and fOutDev (which re-checks inline).
	stop := m.stop(limit)
loop:
	for {
		pc := m.pc & (FlashWords - 1)
		e := x.at(pc)
		if e <= 0 {
			if e == xlDead {
				m.data[addrSREG] = sreg
				break
			}
			e--
			if -e < x.threshold {
				x.set(pc, e)
				m.data[addrSREG] = sreg
				break
			}
			nb := m.translateBlock(pc)
			if nb == nil {
				x.set(pc, xlDead)
				m.data[addrSREG] = sreg
				break
			}
			x.built++
			if n := len(x.free); n > 0 {
				slot := x.free[n-1]
				x.free = x.free[:n-1]
				x.blocks[slot] = nb
				e = slot + 1
			} else {
				x.blocks = append(x.blocks, nb)
				e = int32(len(x.blocks))
			}
			x.set(pc, e)
		}
		b = x.blocks[e-1]
		if m.cycle+uint64(b.wcet) >= stop {
			m.data[addrSREG] = sreg
			break
		}
		iters++
		start := m.cycle
		ops := b.ops
		for i := range ops {
			f := &ops[i]
			switch f.code {
			case fNop:
			case fAdd:
				a, v := m.data[f.d], m.data[f.s]
				r := a + v
				m.data[f.d] = r
				if !f.fold {
					sreg = addFlags(a, v, r, sreg)
				}
			case fAdc:
				a, v := m.data[f.d], m.data[f.s]
				r := a + v
				if sreg&flagC != 0 {
					r++
				}
				m.data[f.d] = r
				if !f.fold {
					sreg = addFlags(a, v, r, sreg)
				}
			case fSub:
				a, v := m.data[f.d], m.data[f.s]
				r := a - v
				m.data[f.d] = r
				if !f.fold {
					sreg = subFlags(a, v, r, sreg, false)
				}
			case fSbc:
				a, v := m.data[f.d], m.data[f.s]
				r := a - v
				if sreg&flagC != 0 {
					r--
				}
				m.data[f.d] = r
				if !f.fold {
					sreg = subFlags(a, v, r, sreg, true)
				}
			case fCp:
				if !f.fold {
					a, v := m.data[f.d], m.data[f.s]
					sreg = subFlags(a, v, a-v, sreg, false)
				}
			case fCpc:
				if !f.fold {
					a, v := m.data[f.d], m.data[f.s]
					r := a - v
					if sreg&flagC != 0 {
						r--
					}
					sreg = subFlags(a, v, r, sreg, true)
				}
			case fSubi:
				a := m.data[f.d]
				r := a - f.k
				m.data[f.d] = r
				if !f.fold {
					sreg = subFlags(a, f.k, r, sreg, false)
				}
			case fCpi:
				if !f.fold {
					a := m.data[f.d]
					sreg = subFlags(a, f.k, a-f.k, sreg, false)
				}
			case fSbci:
				a := m.data[f.d]
				r := a - f.k
				if sreg&flagC != 0 {
					r--
				}
				m.data[f.d] = r
				if !f.fold {
					sreg = subFlags(a, f.k, r, sreg, true)
				}
			case fAnd:
				r := m.data[f.d] & m.data[f.s]
				m.data[f.d] = r
				if !f.fold {
					sreg = logicFlags(r, sreg)
				}
			case fAndi:
				r := m.data[f.d] & f.k
				m.data[f.d] = r
				if !f.fold {
					sreg = logicFlags(r, sreg)
				}
			case fOr:
				r := m.data[f.d] | m.data[f.s]
				m.data[f.d] = r
				if !f.fold {
					sreg = logicFlags(r, sreg)
				}
			case fOri:
				r := m.data[f.d] | f.k
				m.data[f.d] = r
				if !f.fold {
					sreg = logicFlags(r, sreg)
				}
			case fEor:
				r := m.data[f.d] ^ m.data[f.s]
				m.data[f.d] = r
				if !f.fold {
					sreg = logicFlags(r, sreg)
				}
			case fCom:
				r := ^m.data[f.d]
				m.data[f.d] = r
				if !f.fold {
					sreg = nzs(logicFlags(r, sreg)|flagC, r)
				}
			case fNeg:
				a := m.data[f.d]
				r := -a
				m.data[f.d] = r
				if !f.fold {
					s := sreg &^ (flagH | flagS | flagV | flagN | flagZ | flagC)
					if r != 0 {
						s |= flagC
					}
					if r == 0x80 {
						s |= flagV
					}
					if (r|a)&0x08 != 0 {
						s |= flagH
					}
					sreg = nzs(s, r)
				}
			case fMov:
				m.data[f.d] = m.data[f.s]
			case fMovw:
				m.data[f.d] = m.data[f.s]
				m.data[f.d+1] = m.data[f.s+1]
			case fLdi:
				m.data[f.d] = f.k
			case fSwap:
				m.data[f.d] = m.data[f.d]<<4 | m.data[f.d]>>4
			case fInc:
				r := m.data[f.d] + 1
				m.data[f.d] = r
				if !f.fold {
					s := sreg &^ (flagS | flagV | flagN | flagZ)
					if r == 0x80 {
						s |= flagV
					}
					sreg = nzs(s, r)
				}
			case fDec:
				r := m.data[f.d] - 1
				m.data[f.d] = r
				if !f.fold {
					s := sreg &^ (flagS | flagV | flagN | flagZ)
					if r == 0x7F {
						s |= flagV
					}
					sreg = nzs(s, r)
				}
			case fAsr:
				a := m.data[f.d]
				r := a>>1 | a&0x80
				m.data[f.d] = r
				if !f.fold {
					sreg = shiftFlags(a, r, sreg)
				}
			case fLsr:
				a := m.data[f.d]
				r := a >> 1
				m.data[f.d] = r
				if !f.fold {
					sreg = shiftFlags(a, r, sreg)
				}
			case fRor:
				a := m.data[f.d]
				r := a >> 1
				if sreg&flagC != 0 {
					r |= 0x80
				}
				m.data[f.d] = r
				if !f.fold {
					sreg = shiftFlags(a, r, sreg)
				}
			case fMul:
				p := uint16(m.data[f.d]) * uint16(m.data[f.s])
				m.data[0] = byte(p)
				m.data[1] = byte(p >> 8)
				if !f.fold {
					s := sreg &^ (flagC | flagZ)
					if p&0x8000 != 0 {
						s |= flagC
					}
					if p == 0 {
						s |= flagZ
					}
					sreg = s
				}
			case fAdiw:
				v := m.RegPair(f.d)
				r := v + uint16(f.k)
				m.SetRegPair(f.d, r)
				if !f.fold {
					s := sreg &^ (flagS | flagV | flagN | flagZ | flagC)
					if r&0x8000 != 0 && v&0x8000 == 0 {
						s |= flagV
					}
					if r&0x8000 == 0 && v&0x8000 != 0 {
						s |= flagC
					}
					sreg = adiwTail(s, r)
				}
			case fSbiw:
				v := m.RegPair(f.d)
				r := v - uint16(f.k)
				m.SetRegPair(f.d, r)
				if !f.fold {
					s := sreg &^ (flagS | flagV | flagN | flagZ | flagC)
					if r&0x8000 == 0 && v&0x8000 != 0 {
						s |= flagV
					}
					if r&0x8000 != 0 && v&0x8000 == 0 {
						s |= flagC
					}
					sreg = adiwTail(s, r)
				}
			case fBset:
				if !f.fold {
					sreg |= f.k
				}
			case fBclr:
				if !f.fold {
					sreg &^= f.k
				}
			case fInData:
				m.data[f.d] = m.data[f.a]
			case fInSreg:
				m.data[f.d] = sreg
			case fInDev:
				m.cycle = start + uint64(f.cum)
				m.data[f.d] = m.readIO(f.a)
			case fOutData:
				m.data[f.a] = m.data[f.d]
			case fOutSreg:
				sreg = m.data[f.d]
			case fOutDev:
				// Exactly execOut: charge, then write. The write may
				// reschedule device events, so re-check the remaining worst
				// case against the new horizon; on a miss, leave the block
				// with Step's exact post-OUT state and let the ladder sync.
				m.cycle = start + uint64(f.cum)
				m.writeIO(f.a, m.data[f.d])
				stop = m.stop(limit)
				if m.cycle+uint64(b.wcet-f.cum) >= stop {
					m.pc = b.nextPC(i)
					m.data[addrSREG] = sreg
					done += uint64(i) + 1
					halt = true
					break loop
				}
			case fSbiData:
				m.data[f.a] |= f.k
			case fCbiData:
				m.data[f.a] &^= f.k
			case fLdsData:
				m.data[f.d] = m.data[f.a]
			case fLdsSreg:
				m.data[f.d] = sreg
			case fLdsDev:
				m.cycle = start + uint64(f.cum)
				m.data[f.d] = m.readIO(f.a)
			case fLdsRAM:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				v, lerr := m.loadByte(f.a)
				if lerr != nil {
					done += uint64(i) + 1
					err = lerr
					break loop
				}
				m.data[f.d] = v
				sreg = m.data[addrSREG]
			case fStsData:
				m.data[f.a] = m.data[f.d]
			case fStsSreg:
				sreg = m.data[f.d]
			case fStsRAM:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				if serr := m.storeByte(f.a, m.data[f.d]); serr != nil {
					done += uint64(i) + 1
					err = serr
					break loop
				}
				sreg = m.data[addrSREG]
			case fLdd:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				v, lerr := m.loadByte(m.RegPair(f.s) + f.a)
				if lerr != nil {
					done += uint64(i) + 1
					err = lerr
					break loop
				}
				m.data[f.d] = v
				sreg = m.data[addrSREG]
			case fLdIndInc:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				p := m.RegPair(f.s)
				v, lerr := m.loadByte(p)
				if lerr != nil {
					done += uint64(i) + 1
					err = lerr
					break loop
				}
				m.data[f.d] = v
				m.SetRegPair(f.s, p+1)
				sreg = m.data[addrSREG]
			case fLdIndDec:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				p := m.RegPair(f.s) - 1
				v, lerr := m.loadByte(p)
				if lerr != nil {
					done += uint64(i) + 1
					err = lerr
					break loop
				}
				m.data[f.d] = v
				m.SetRegPair(f.s, p)
				sreg = m.data[addrSREG]
			case fPush:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				m.pushByte(m.data[f.d])
				if m.fault != nil {
					done += uint64(i) + 1
					err = m.fault
					break loop
				}
				sreg = m.data[addrSREG]
			case fPop:
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				m.data[f.d] = m.popByte()
				if m.fault != nil {
					done += uint64(i) + 1
					err = m.fault
					break loop
				}
				sreg = m.data[addrSREG]
			case fLpm:
				m.data[0] = m.flashByte(uint32(m.RegPair(avr.RegZ)))
			case fLpmZ:
				m.data[f.d] = m.flashByte(uint32(m.RegPair(avr.RegZ)))
			case fLpmZInc:
				z := m.RegPair(avr.RegZ)
				m.data[f.d] = m.flashByte(uint32(z))
				m.SetRegPair(avr.RegZ, z+1)
			default:
				done += uint64(i) + 1
				m.cycle = start + uint64(f.cum)
				m.pc = f.pc
				m.data[addrSREG] = sreg
				err = m.faultf(FaultBadInst, 0, "unfusable op in translated block")
				break loop
			}
		}
		done += uint64(len(ops))
		switch b.termKind {
		case tkNone:
			m.cycle = start + uint64(b.bodyCycles)
			m.pc = b.fallPC
		case tkJmp:
			done++
			m.cycle = start + uint64(b.bodyCycles) + uint64(b.termCyc)
			m.pc = b.termTo
		case tkBr:
			// Exactly execBrbs/execBrbc, with the flags still in the local.
			done++
			c := start + uint64(b.bodyCycles) + uint64(b.termCyc)
			if (sreg&b.termK != 0) == b.termSet {
				c++
				m.pc = b.termTo
			} else {
				m.pc = b.fallPC
			}
			m.cycle = c
		case tkSkip, tkSkipJmp, tkSkipTrap:
			// Exactly execCpse/execSbrc/execSbrs/execSbic/execSbis: base cycles
			// first (a device-register read sees the flushed clock), plus the
			// skipped instruction's words when the skip is taken.
			done++
			c := start + uint64(b.bodyCycles) + uint64(b.termCyc)
			var hit bool
			switch b.termCond {
			case scReg:
				hit = m.data[b.termD]&b.termK != 0
			case scIO:
				hit = m.data[b.termA]&b.termK != 0
			case scIODev:
				m.cycle = c
				hit = m.readIO(b.termA)&b.termK != 0
			default: // scRegEq
				hit = m.data[b.termD] == m.data[b.termS]
			}
			switch {
			case hit != b.termNeg: // skip taken
				m.cycle = c + uint64(b.termSkpW)
				m.pc = b.skipTo
			case b.termKind == tkSkipJmp: // not taken: the fused jump executes
				done++
				m.cycle = c + uint64(b.termJCyc)
				m.pc = b.termTo
			case b.termKind == tkSkipTrap: // not taken: the fused trap executes
				done++
				m.cycle = c + uint64(b.termJCyc)
				m.pc = b.fallPC
				m.data[addrSREG] = sreg
				m.insts += done
				fused += done
				done = 0
				if m.trap == nil {
					err = m.faultf(FaultTrap, 0, "no kernel attached")
					break loop
				}
				if terr := m.trap(m, b.termA); terr != nil {
					if m.fault == nil {
						m.faultf(FaultTrap, 0, terr.Error())
					}
					err = m.fault
					break loop
				}
				if m.ladderDue() {
					halt = true
					break loop
				}
				sreg = m.data[addrSREG]
				stop = m.stop(limit)
			default:
				m.cycle = c
				m.pc = b.fallPC
			}
		case tkTrap:
			// The kernel trap runs with everything flushed, exactly as
			// execKtrap does under Step. The service may fault, sleep,
			// switch tasks, move the horizon, or arm or bring due a hook —
			// re-check the ladder, and only keep dispatching when none of
			// it fired.
			done++
			m.cycle = start + uint64(b.bodyCycles) + uint64(b.termCyc)
			m.pc = b.termPC
			m.data[addrSREG] = sreg
			m.insts += done
			fused += done
			done = 0
			if m.trap == nil {
				err = m.faultf(FaultTrap, 0, "no kernel attached")
				break loop
			}
			if terr := m.trap(m, b.termA); terr != nil {
				if m.fault == nil {
					m.faultf(FaultTrap, 0, terr.Error())
				}
				err = m.fault
				break loop
			}
			if m.ladderDue() {
				halt = true
				break loop
			}
			sreg = m.data[addrSREG]
			stop = m.stop(limit)
		default: // tkDispatch
			done++
			m.cycle = start + uint64(b.bodyCycles)
			m.pc = b.termPC
			m.data[addrSREG] = sreg
			m.insts += done
			fused += done
			done = 0
			tu, ferr := m.fetchUop(b.termPC)
			if ferr != nil {
				err = m.faultf(FaultBadInst, 0, ferr.Error())
				break loop
			}
			if terr := dispatch[byte(tu.in.Op)](m, tu); terr != nil {
				err = terr
				break loop
			}
			sreg = m.data[addrSREG]
			stop = m.stop(limit)
		}
	}
	m.insts += done
	x.dispatches += iters
	x.fusedInsts += fused + done
	return halt, err
}
