package mcu

// shiftFlags computes SREG for ASR/LSR/ROR, branch-free like the helpers in
// flags.go: C is the shifted-out bit, V = N ^ C, and S = N ^ V = C.
func shiftFlags(a, r byte, sreg byte) byte {
	sreg &^= flagS | flagV | flagN | flagZ | flagC
	c := a & 1
	n := r >> 7
	var z byte
	if r == 0 {
		z = flagZ
	}
	return sreg | c | z | n<<2 | (n^c)<<3 | c<<4
}

// skip advances past the next instruction (CPSE/SBRC/SBRS/SBIC/SBIS taken).
// The length of the skipped instruction is looked up dynamically through the
// micro-op cache — never precomputed into the skipping uop — so a LoadFlash
// that rewrites the following word is always honoured.
func (m *Machine) skip(next uint32) uint32 {
	u, err := m.fetchUop(next)
	if err != nil {
		// Undecodable skipped word: treat as one word, as hardware would.
		m.cycle++
		return next + 1
	}
	w := uint32(u.in.Op.Words())
	m.cycle += uint64(w)
	return next + w
}

// loadByte reads data memory with device dispatch and guard checking.
func (m *Machine) loadByte(addr uint16) (byte, error) {
	addr %= DataSize
	if addr < SRAMBase {
		return m.readIO(addr), nil
	}
	if m.guardOn && (addr < m.guardLo || addr >= m.guardHi) {
		return 0, m.faultf(FaultMemGuard, addr, "native load outside task region")
	}
	if m.memWatch != nil {
		m.memWatch(m.pc, addr, false)
	}
	return m.data[addr], nil
}

// storeByte writes data memory with device dispatch and guard checking.
func (m *Machine) storeByte(addr uint16, v byte) error {
	addr %= DataSize
	if addr < SRAMBase {
		m.writeIO(addr, v)
		return nil
	}
	if m.guardOn && (addr < m.guardLo || addr >= m.guardHi) {
		return m.faultf(FaultMemGuard, addr, "native store outside task region")
	}
	if m.memWatch != nil {
		m.memWatch(m.pc, addr, true)
	}
	m.data[addr] = v
	return nil
}

// pushByte writes through SP and post-decrements it, enforcing the guard.
func (m *Machine) pushByte(b byte) {
	sp := m.SP()
	if m.guardOn && (sp < m.guardLo || sp >= m.guardHi) {
		m.faultf(FaultStackOverflow, sp, "push outside task region")
		return
	}
	if m.memWatch != nil {
		m.memWatch(m.pc, sp, true)
	}
	m.data[sp%DataSize] = b
	m.SetSP(sp - 1)
}

// popByte pre-increments SP and reads through it. The guard is checked
// before SP is committed, so a faulting pop leaves SP where it was and the
// kernel's retry-after-recovery re-executes the pop exactly.
func (m *Machine) popByte() byte {
	sp := m.SP() + 1
	if m.guardOn && (sp < m.guardLo || sp >= m.guardHi) {
		m.faultf(FaultStackOverflow, sp, "pop outside task region")
		return 0
	}
	m.SetSP(sp)
	if m.memWatch != nil {
		m.memWatch(m.pc, sp, false)
	}
	return m.data[sp%DataSize]
}

// pushWord pushes low byte first (so memory holds little-endian order). Both
// bytes are guard-checked up front: a word push that cannot complete is
// transactional — no byte is written and SP does not move — so the kernel's
// grow-and-retry recovery replays the instruction from pristine state instead
// of landing the return address one byte low and leaking the partial write.
func (m *Machine) pushWord(w uint16) {
	if sp := m.SP(); !m.wordFits(sp) {
		m.faultf(FaultStackOverflow, sp, "push outside task region")
		return
	}
	m.pushByte(byte(w))
	m.pushByte(byte(w >> 8))
}

// popWord is the inverse of pushWord, with the same transactional guard
// discipline: both byte addresses are checked before either read or the SP
// update happens.
func (m *Machine) popWord() uint16 {
	if m.guardOn {
		sp := m.SP()
		if sp+1 < m.guardLo || sp+2 >= m.guardHi {
			m.faultf(FaultStackOverflow, sp+1, "pop outside task region")
			return 0
		}
	}
	hi := m.popByte()
	lo := m.popByte()
	return uint16(hi)<<8 | uint16(lo)
}

// PushWord exposes return-address pushing for the kernel (context save and
// trampoline-emulated CALLs).
func (m *Machine) PushWord(w uint16) { m.pushWord(w) }

// PopWord exposes return-address popping for the kernel.
func (m *Machine) PopWord() uint16 { return m.popWord() }

// flashByte reads a byte from program memory (LPM semantics: the address is
// a byte address; bit 0 selects low/high byte of the word).
func (m *Machine) flashByte(z uint32) byte {
	w := m.FlashWord(z >> 1)
	if z&1 != 0 {
		return byte(w >> 8)
	}
	return byte(w)
}

// FlashByte is the exported flashByte for kernel-mediated LPM translation;
// it takes a full-width byte address because naturalized programs may sit
// above the 64 KB byte boundary.
func (m *Machine) FlashByte(z uint32) byte { return m.flashByte(z) }

// ReadBus reads a data-space address with device side effects but without
// guard checks (kernel-mediated access on behalf of a task).
func (m *Machine) ReadBus(addr uint16) byte {
	addr %= DataSize
	if addr < SRAMBase {
		return m.readIO(addr)
	}
	return m.data[addr]
}

// WriteBus writes a data-space address with device side effects but without
// guard checks.
func (m *Machine) WriteBus(addr uint16, v byte) {
	addr %= DataSize
	if addr < SRAMBase {
		m.writeIO(addr, v)
		return
	}
	m.data[addr] = v
}
