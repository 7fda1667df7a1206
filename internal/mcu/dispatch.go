package mcu

import "repro/internal/avr"

// The predecoded micro-op interpreter. Each flash word decodes once into a
// uop: the handler function for its op class, the operands it needs already
// extracted (register indices, absolute/IO addresses, bit masks, immediate
// bytes), the pre-masked fall-through and static branch-target PCs, and the
// base cycle count. The cache is built lazily on first execution, exactly
// like the old decoded/decodedB arrays, and invalidated on the same paths
// (LoadFlash, SetTrapHandler).
//
// Handler semantics replicate the retired exec() switch instruction for
// instruction, in particular its ordering rules:
//
//   - base cycles are charged before the op body runs;
//   - PC does not advance when the op faults;
//   - load/store errors return before the register writeback and before the
//     PC advance;
//   - RETI sets the I flag even when its pop faulted;
//   - POP writes the (zero) popped value before returning the fault;
//   - calls push the return address, then fault-check, then set PC;
//   - skip lengths (CPSE/SBRC/SBRS/SBIC/SBIS) stay dynamic — they fetch the
//     following word through the uop cache, so a LoadFlash that rewrites the
//     skipped instruction is always honoured.

// execFn executes one predecoded micro-op.
type execFn func(m *Machine, u *uop) error

// uop is one executable micro-op cache entry. It is deliberately pointer-free
// — the handler lives in the global dispatch table, indexed by in.Op — so the
// garbage collector never scans the micro-op pages.
// An entry with in.Op == OpInvalid (the zero value) has not been built yet.
type uop struct {
	in     avr.Inst // original decoded instruction (InstAt, skip, diagnostics)
	next   uint32   // pre-masked fall-through PC
	target uint32   // pre-masked static branch/jump/call target
	a      uint16   // absolute data address, or IO data-space address
	d, s   uint8    // destination register / source or pointer register
	k      byte     // immediate byte, or precomputed bit mask
	cycles uint8    // base cycle count
	// checked marks ops whose handlers may change global execution state
	// (KTRAP can halt, sleep, or switch tasks; SLEEP sets m.sleeping), and
	// ctl marks control transfers. RunUntil stops stepping after either, to
	// re-run the ladder and offer the landing PC, a basic-block leader, to
	// the fused tier (see translate.go).
	checked bool
	ctl     bool
}

// dispatch maps each op to its handler. It is sized for a full byte index so
// dispatch[byte(op)] needs no bounds check; init fills every unused slot with
// execUnimpl, so no entry is ever nil.
var dispatch [256]execFn

func init() {
	dispatch[avr.OpNop] = execNop
	dispatch[avr.OpWdr] = execNop
	dispatch[avr.OpSleep] = execSleep
	dispatch[avr.OpBreak] = execBreak
	dispatch[avr.OpKtrap] = execKtrap

	dispatch[avr.OpAdd] = execAdd
	dispatch[avr.OpAdc] = execAdc
	dispatch[avr.OpSub] = execSub
	dispatch[avr.OpCp] = execCp
	dispatch[avr.OpSbc] = execSbc
	dispatch[avr.OpCpc] = execCpc
	dispatch[avr.OpSubi] = execSubi
	dispatch[avr.OpCpi] = execCpi
	dispatch[avr.OpSbci] = execSbci
	dispatch[avr.OpAnd] = execAnd
	dispatch[avr.OpAndi] = execAndi
	dispatch[avr.OpOr] = execOr
	dispatch[avr.OpOri] = execOri
	dispatch[avr.OpEor] = execEor
	dispatch[avr.OpMov] = execMov
	dispatch[avr.OpMovw] = execMovw
	dispatch[avr.OpLdi] = execLdi
	dispatch[avr.OpCom] = execCom
	dispatch[avr.OpNeg] = execNeg
	dispatch[avr.OpSwap] = execSwap
	dispatch[avr.OpInc] = execInc
	dispatch[avr.OpDec] = execDec
	dispatch[avr.OpAsr] = execAsr
	dispatch[avr.OpLsr] = execLsr
	dispatch[avr.OpRor] = execRor
	dispatch[avr.OpMul] = execMul
	dispatch[avr.OpAdiw] = execAdiw
	dispatch[avr.OpSbiw] = execSbiw
	dispatch[avr.OpBset] = execBset
	dispatch[avr.OpBclr] = execBclr

	dispatch[avr.OpRjmp] = execRjmp
	dispatch[avr.OpRcall] = execRcall
	dispatch[avr.OpJmp] = execJmp
	dispatch[avr.OpCall] = execCall
	dispatch[avr.OpIjmp] = execIjmp
	dispatch[avr.OpIcall] = execIcall
	dispatch[avr.OpRet] = execRet
	dispatch[avr.OpReti] = execReti
	dispatch[avr.OpBrbs] = execBrbs
	dispatch[avr.OpBrbc] = execBrbc
	dispatch[avr.OpCpse] = execCpse
	dispatch[avr.OpSbrc] = execSbrc
	dispatch[avr.OpSbrs] = execSbrs
	dispatch[avr.OpSbic] = execSbic
	dispatch[avr.OpSbis] = execSbis

	dispatch[avr.OpIn] = execIn
	dispatch[avr.OpOut] = execOut
	dispatch[avr.OpSbi] = execSbi
	dispatch[avr.OpCbi] = execCbi

	dispatch[avr.OpLds] = execLds
	dispatch[avr.OpSts] = execSts
	dispatch[avr.OpLdX] = execLdInd
	dispatch[avr.OpLdXInc] = execLdIndInc
	dispatch[avr.OpLdXDec] = execLdIndDec
	dispatch[avr.OpLdYInc] = execLdIndInc
	dispatch[avr.OpLdYDec] = execLdIndDec
	dispatch[avr.OpLddY] = execLdd
	dispatch[avr.OpLdZInc] = execLdIndInc
	dispatch[avr.OpLdZDec] = execLdIndDec
	dispatch[avr.OpLddZ] = execLdd
	dispatch[avr.OpStX] = execStInd
	dispatch[avr.OpStXInc] = execStIndInc
	dispatch[avr.OpStXDec] = execStIndDec
	dispatch[avr.OpStYInc] = execStIndInc
	dispatch[avr.OpStYDec] = execStIndDec
	dispatch[avr.OpStdY] = execStd
	dispatch[avr.OpStZInc] = execStIndInc
	dispatch[avr.OpStZDec] = execStIndDec
	dispatch[avr.OpStdZ] = execStd
	dispatch[avr.OpPush] = execPush
	dispatch[avr.OpPop] = execPop

	dispatch[avr.OpLpm] = execLpm
	dispatch[avr.OpLpmZ] = execLpmZ
	dispatch[avr.OpLpmZInc] = execLpmZInc

	for i, fn := range dispatch {
		if fn == nil {
			dispatch[i] = execUnimpl
		}
	}
}

// buildUop decodes the flash word at (masked) pc into u, its micro-op cache
// slot. Decode errors are not cached, matching the old fetch.
func (m *Machine) buildUop(pc uint32, u *uop) error {
	// The operand word of a two-word instruction may sit on the next page;
	// the last flash word has none.
	ws := [2]uint16{m.FlashWord(pc), m.FlashWord(pc + 1)}
	in, err := avr.Decode(ws[:min(FlashWords-int(pc), 2)])
	if err != nil {
		return err
	}
	if in.Op == avr.OpKtrap && m.trap == nil {
		// Without a kernel, BREAK is BREAK; the next word is unrelated.
		in = avr.Inst{Op: avr.OpBreak}
	}
	words, cycles := in.Op.Meta()
	*u = uop{in: in, d: in.Dst, s: in.Src, cycles: uint8(cycles)}
	u.next = (pc + uint32(words)) & (FlashWords - 1)
	u.ctl = in.IsControlTransfer()

	switch in.Op {
	case avr.OpKtrap, avr.OpSleep:
		u.checked = true
	case avr.OpRjmp, avr.OpRcall, avr.OpBrbs, avr.OpBrbc:
		u.target = uint32(int64(pc)+1+int64(in.Imm)) & (FlashWords - 1)
		if in.Op == avr.OpBrbs || in.Op == avr.OpBrbc {
			u.k = 1 << (in.Src & 7)
		}
	case avr.OpJmp, avr.OpCall:
		u.target = uint32(in.Imm) & (FlashWords - 1)
	case avr.OpLdi, avr.OpSubi, avr.OpSbci, avr.OpAndi, avr.OpOri, avr.OpCpi,
		avr.OpAdiw, avr.OpSbiw:
		u.k = byte(in.Imm)
	case avr.OpBset, avr.OpBclr:
		u.k = 1 << (in.Dst & 7)
	case avr.OpSbrc, avr.OpSbrs:
		u.k = 1 << (uint(in.Imm) & 7)
	case avr.OpSbic, avr.OpSbis, avr.OpSbi, avr.OpCbi:
		u.a = uint16(in.Dst) + IOBase
		u.k = 1 << (uint(in.Imm) & 7)
	case avr.OpIn, avr.OpOut:
		u.a = uint16(in.Imm) + IOBase
	case avr.OpLds, avr.OpSts:
		// Wrapped as loadByte and storeByte wrap it, so the fused tier
		// classifies the address the access really reaches.
		u.a = uint16(in.Imm) % DataSize
	case avr.OpLddY, avr.OpStdY:
		u.s, u.a = avr.RegY, uint16(in.Imm)
	case avr.OpLddZ, avr.OpStdZ:
		u.s, u.a = avr.RegZ, uint16(in.Imm)
	case avr.OpLdX, avr.OpLdXInc, avr.OpLdXDec, avr.OpStX, avr.OpStXInc, avr.OpStXDec:
		u.s = avr.RegX
	case avr.OpLdYInc, avr.OpLdYDec, avr.OpStYInc, avr.OpStYDec:
		u.s = avr.RegY
	case avr.OpLdZInc, avr.OpLdZDec, avr.OpStZInc, avr.OpStZDec:
		u.s = avr.RegZ
	}
	return nil
}

// ---- CPU control ----

func execNop(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pc = u.next
	return nil
}

func execSleep(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.sleeping = true
	m.pc = u.next
	return nil
}

func execBreak(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	return m.faultf(FaultBreak, 0, "bare break")
}

func execKtrap(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if m.trap == nil {
		return m.faultf(FaultTrap, 0, "no kernel attached")
	}
	// The handler sets PC and charges kernel cycles itself.
	if err := m.trap(m, uint16(u.in.Imm)); err != nil {
		if m.fault == nil {
			m.faultf(FaultTrap, 0, err.Error())
		}
		return m.fault
	}
	return nil
}

func execUnimpl(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	return m.faultf(FaultBadInst, 0, "unimplemented op "+u.in.Op.String())
}

// ---- register-register and register-immediate ALU ----

func execAdd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a + b
	m.data[u.d] = r
	m.data[addrSREG] = addFlags(a, b, r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execAdc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a + b
	if m.data[addrSREG]&flagC != 0 {
		r++
	}
	m.data[u.d] = r
	m.data[addrSREG] = addFlags(a, b, r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execSub(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a - b
	m.data[u.d] = r
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], false)
	m.pc = u.next
	return nil
}

func execCp(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a - b
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], false)
	m.pc = u.next
	return nil
}

func execSbc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a - b
	if m.data[addrSREG]&flagC != 0 {
		r--
	}
	m.data[u.d] = r
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], true)
	m.pc = u.next
	return nil
}

func execCpc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], m.data[u.s]
	r := a - b
	if m.data[addrSREG]&flagC != 0 {
		r--
	}
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], true)
	m.pc = u.next
	return nil
}

func execSubi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], u.k
	r := a - b
	m.data[u.d] = r
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], false)
	m.pc = u.next
	return nil
}

func execCpi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], u.k
	r := a - b
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], false)
	m.pc = u.next
	return nil
}

func execSbci(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a, b := m.data[u.d], u.k
	r := a - b
	if m.data[addrSREG]&flagC != 0 {
		r--
	}
	m.data[u.d] = r
	m.data[addrSREG] = subFlags(a, b, r, m.data[addrSREG], true)
	m.pc = u.next
	return nil
}

func execAnd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] & m.data[u.s]
	m.data[u.d] = r
	m.data[addrSREG] = logicFlags(r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execAndi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] & u.k
	m.data[u.d] = r
	m.data[addrSREG] = logicFlags(r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execOr(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] | m.data[u.s]
	m.data[u.d] = r
	m.data[addrSREG] = logicFlags(r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execOri(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] | u.k
	m.data[u.d] = r
	m.data[addrSREG] = logicFlags(r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execEor(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] ^ m.data[u.s]
	m.data[u.d] = r
	m.data[addrSREG] = logicFlags(r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execMov(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.data[u.s]
	m.pc = u.next
	return nil
}

func execMovw(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.data[u.s]
	m.data[u.d+1] = m.data[u.s+1]
	m.pc = u.next
	return nil
}

func execLdi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = u.k
	m.pc = u.next
	return nil
}

// ---- single-register ALU ----

func execCom(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := ^m.data[u.d]
	m.data[u.d] = r
	s := logicFlags(r, m.data[addrSREG]) | flagC
	m.data[addrSREG] = nzs(s, r)
	m.pc = u.next
	return nil
}

func execNeg(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a := m.data[u.d]
	r := -a
	m.data[u.d] = r
	s := m.data[addrSREG] &^ (flagH | flagS | flagV | flagN | flagZ | flagC)
	if r != 0 {
		s |= flagC
	}
	if r == 0x80 {
		s |= flagV
	}
	if (r|a)&0x08 != 0 {
		s |= flagH
	}
	m.data[addrSREG] = nzs(s, r)
	m.pc = u.next
	return nil
}

func execSwap(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.data[u.d]<<4 | m.data[u.d]>>4
	m.pc = u.next
	return nil
}

func execInc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] + 1
	m.data[u.d] = r
	s := m.data[addrSREG] &^ (flagS | flagV | flagN | flagZ)
	if r == 0x80 {
		s |= flagV
	}
	m.data[addrSREG] = nzs(s, r)
	m.pc = u.next
	return nil
}

func execDec(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	r := m.data[u.d] - 1
	m.data[u.d] = r
	s := m.data[addrSREG] &^ (flagS | flagV | flagN | flagZ)
	if r == 0x7F {
		s |= flagV
	}
	m.data[addrSREG] = nzs(s, r)
	m.pc = u.next
	return nil
}

func execAsr(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a := m.data[u.d]
	r := a>>1 | a&0x80
	m.data[u.d] = r
	m.data[addrSREG] = shiftFlags(a, r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execLsr(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a := m.data[u.d]
	r := a >> 1
	m.data[u.d] = r
	m.data[addrSREG] = shiftFlags(a, r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execRor(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	a := m.data[u.d]
	r := a >> 1
	if m.data[addrSREG]&flagC != 0 {
		r |= 0x80
	}
	m.data[u.d] = r
	m.data[addrSREG] = shiftFlags(a, r, m.data[addrSREG])
	m.pc = u.next
	return nil
}

func execMul(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	p := uint16(m.data[u.d]) * uint16(m.data[u.s])
	m.data[0] = byte(p)
	m.data[1] = byte(p >> 8)
	s := m.data[addrSREG] &^ (flagC | flagZ)
	if p&0x8000 != 0 {
		s |= flagC
	}
	if p == 0 {
		s |= flagZ
	}
	m.data[addrSREG] = s
	m.pc = u.next
	return nil
}

func execAdiw(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	v := m.RegPair(u.d)
	s := m.data[addrSREG] &^ (flagS | flagV | flagN | flagZ | flagC)
	r := v + uint16(u.k)
	if r&0x8000 != 0 && v&0x8000 == 0 {
		s |= flagV
	}
	if r&0x8000 == 0 && v&0x8000 != 0 {
		s |= flagC
	}
	m.SetRegPair(u.d, r)
	m.data[addrSREG] = adiwTail(s, r)
	m.pc = u.next
	return nil
}

func execSbiw(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	v := m.RegPair(u.d)
	s := m.data[addrSREG] &^ (flagS | flagV | flagN | flagZ | flagC)
	r := v - uint16(u.k)
	if r&0x8000 == 0 && v&0x8000 != 0 {
		s |= flagV
	}
	if r&0x8000 != 0 && v&0x8000 == 0 {
		s |= flagC
	}
	m.SetRegPair(u.d, r)
	m.data[addrSREG] = adiwTail(s, r)
	m.pc = u.next
	return nil
}

// adiwTail finishes the shared Z/N/S computation of ADIW and SBIW.
func adiwTail(s byte, r uint16) byte {
	if r == 0 {
		s |= flagZ
	}
	if r&0x8000 != 0 {
		s |= flagN
	}
	n, vf := s&flagN != 0, s&flagV != 0
	if n != vf {
		s |= flagS
	}
	return s
}

func execBset(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[addrSREG] |= u.k
	m.pc = u.next
	return nil
}

func execBclr(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[addrSREG] &^= u.k
	m.pc = u.next
	return nil
}

// ---- control flow ----

func execRjmp(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pc = u.target
	return nil
}

func execRcall(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pushWord(uint16(u.next))
	if m.fault != nil {
		return m.fault
	}
	m.pc = u.target
	return nil
}

func execJmp(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pc = u.target
	return nil
}

func execCall(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pushWord(uint16(u.next))
	if m.fault != nil {
		return m.fault
	}
	m.pc = u.target
	return nil
}

func execIjmp(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pc = uint32(m.RegPair(avr.RegZ))
	return nil
}

func execIcall(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pushWord(uint16(u.next))
	if m.fault != nil {
		return m.fault
	}
	m.pc = uint32(m.RegPair(avr.RegZ))
	return nil
}

func execRet(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	w := m.popWord()
	if m.fault != nil {
		return m.fault
	}
	m.pc = uint32(w)
	return nil
}

func execReti(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	w := m.popWord()
	m.data[addrSREG] |= flagI
	if m.fault != nil {
		return m.fault
	}
	m.pc = uint32(w)
	return nil
}

func execBrbs(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if m.data[addrSREG]&u.k != 0 {
		m.cycle++
		m.pc = u.target
	} else {
		m.pc = u.next
	}
	return nil
}

func execBrbc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if m.data[addrSREG]&u.k == 0 {
		m.cycle++
		m.pc = u.target
	} else {
		m.pc = u.next
	}
	return nil
}

func execCpse(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	next := u.next
	if m.data[u.d] == m.data[u.s] {
		next = m.skip(next) & (FlashWords - 1)
	}
	m.pc = next
	return nil
}

func execSbrc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	next := u.next
	if m.data[u.d]&u.k == 0 {
		next = m.skip(next) & (FlashWords - 1)
	}
	m.pc = next
	return nil
}

func execSbrs(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	next := u.next
	if m.data[u.d]&u.k != 0 {
		next = m.skip(next) & (FlashWords - 1)
	}
	m.pc = next
	return nil
}

func execSbic(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	next := u.next
	if m.readIO(u.a)&u.k == 0 {
		next = m.skip(next) & (FlashWords - 1)
	}
	m.pc = next
	return nil
}

func execSbis(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	next := u.next
	if m.readIO(u.a)&u.k != 0 {
		next = m.skip(next) & (FlashWords - 1)
	}
	m.pc = next
	return nil
}

// ---- I/O space ----

func execIn(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.readIO(u.a)
	m.pc = u.next
	return nil
}

func execOut(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.writeIO(u.a, m.data[u.d])
	m.pc = u.next
	return nil
}

func execSbi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.writeIO(u.a, m.readIO(u.a)|u.k)
	m.pc = u.next
	return nil
}

func execCbi(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.writeIO(u.a, m.readIO(u.a)&^u.k)
	m.pc = u.next
	return nil
}

// ---- data-memory loads and stores ----

func execLds(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	v, err := m.loadByte(u.a)
	if err != nil {
		return err
	}
	m.data[u.d] = v
	m.pc = u.next
	return nil
}

func execSts(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if err := m.storeByte(u.a, m.data[u.d]); err != nil {
		return err
	}
	m.pc = u.next
	return nil
}

func execLdInd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	v, err := m.loadByte(m.RegPair(u.s))
	if err != nil {
		return err
	}
	m.data[u.d] = v
	m.pc = u.next
	return nil
}

func execLdIndInc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	p := m.RegPair(u.s)
	v, err := m.loadByte(p)
	if err != nil {
		return err
	}
	m.data[u.d] = v
	m.SetRegPair(u.s, p+1)
	m.pc = u.next
	return nil
}

func execLdIndDec(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	p := m.RegPair(u.s) - 1
	v, err := m.loadByte(p)
	if err != nil {
		return err
	}
	m.data[u.d] = v
	m.SetRegPair(u.s, p)
	m.pc = u.next
	return nil
}

func execLdd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	v, err := m.loadByte(m.RegPair(u.s) + u.a)
	if err != nil {
		return err
	}
	m.data[u.d] = v
	m.pc = u.next
	return nil
}

func execStInd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if err := m.storeByte(m.RegPair(u.s), m.data[u.d]); err != nil {
		return err
	}
	m.pc = u.next
	return nil
}

func execStIndInc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	p := m.RegPair(u.s)
	if err := m.storeByte(p, m.data[u.d]); err != nil {
		return err
	}
	m.SetRegPair(u.s, p+1)
	m.pc = u.next
	return nil
}

func execStIndDec(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	p := m.RegPair(u.s) - 1
	if err := m.storeByte(p, m.data[u.d]); err != nil {
		return err
	}
	m.SetRegPair(u.s, p)
	m.pc = u.next
	return nil
}

func execStd(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	if err := m.storeByte(m.RegPair(u.s)+u.a, m.data[u.d]); err != nil {
		return err
	}
	m.pc = u.next
	return nil
}

func execPush(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.pushByte(m.data[u.d])
	if m.fault != nil {
		return m.fault
	}
	m.pc = u.next
	return nil
}

func execPop(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.popByte()
	if m.fault != nil {
		return m.fault
	}
	m.pc = u.next
	return nil
}

// ---- program-memory loads ----

func execLpm(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[0] = m.flashByte(uint32(m.RegPair(avr.RegZ)))
	m.pc = u.next
	return nil
}

func execLpmZ(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	m.data[u.d] = m.flashByte(uint32(m.RegPair(avr.RegZ)))
	m.pc = u.next
	return nil
}

func execLpmZInc(m *Machine, u *uop) error {
	m.cycle += uint64(u.cycles)
	z := m.RegPair(avr.RegZ)
	m.data[u.d] = m.flashByte(uint32(z))
	m.SetRegPair(avr.RegZ, z+1)
	m.pc = u.next
	return nil
}
