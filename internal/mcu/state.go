package mcu

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// Capture/restore errors. Capture refuses state it cannot serialize; restore
// refuses state that does not fit the machine it is applied to.
var (
	// ErrCustomADCSource: a machine with a caller-installed ADC source
	// closure cannot be checkpointed — the closure's state is opaque.
	ErrCustomADCSource = errors.New("mcu: cannot capture state with a custom ADC source installed")
	// ErrArmedInjector: an armed fault-injection hook is a pending
	// side effect the snapshot cannot carry.
	ErrArmedInjector = errors.New("mcu: cannot capture state with an armed fault injector")
	// ErrImageMismatch: the restore target's flash contents differ from the
	// image the snapshot was taken against.
	ErrImageMismatch = errors.New("mcu: flash image differs from snapshot's")
	// ErrSnapshotDataSize: the snapshot's data segment is not DataSize bytes,
	// so it was taken against a different memory geometry (or truncated).
	ErrSnapshotDataSize = errors.New("mcu: snapshot data segment size mismatch")
	// ErrSamplerMismatch: the restore target's telemetry sampling interval
	// differs from the snapshot's, so the restored sample schedule would not
	// reproduce the source run's boundaries.
	ErrSamplerMismatch = errors.New("mcu: telemetry interval differs from snapshot's")
)

// DeviceState is the serializable peripheral state of a Machine.
type DeviceState struct {
	NextEvent uint64

	T0BaseCycle uint64
	T0BaseCount uint16
	T0Prescale  uint32

	ADCBusyUntil uint64
	ADCPending   bool
	ADCLFSR      uint16

	UARTBusyUntil uint64
	UARTPendingB  byte
	UARTPending   bool
	UARTOut       []byte

	RadioBusyUntil uint64
	RadioPendingB  byte
	RadioPending   bool
	RadioOut       []RadioFrame
	RadioIn        []byte
}

// MachineState is the complete serializable execution state of a Machine,
// excluding the program image: flash (and its derived micro-op cache) is
// validated by hash instead of carried, so a restore target must have the
// same programs deployed — which it reuses, optionally copy-on-write shared
// via AdoptImage.
type MachineState struct {
	Data  []byte // all DataSize bytes: registers, I/O space, SRAM
	PC    uint32
	Cycle uint64
	Idle  uint64
	Insts uint64

	Sleeping  bool
	FaultKind uint8
	FaultPC   uint32
	FaultAddr uint16
	FaultNote string
	Pending   uint8
	Stepwise  bool

	GuardLo, GuardHi uint16
	GuardOn          bool

	SampleEvery uint64
	SampleNext  uint64

	CodeEnd   uint32
	FlashHash [32]byte

	Dev DeviceState
}

// flashHash returns the SHA-256 of the whole flash image (all FlashWords
// words, little-endian). It is computed once per image and kept until the
// next LoadFlash.
func (m *Machine) flashHash() [32]byte {
	if m.digestOK {
		return m.digest
	}
	h := sha256.New()
	var buf [2 * pageWords]byte
	for _, p := range m.flash {
		for j, w := range p.v {
			buf[2*j] = byte(w)
			buf[2*j+1] = byte(w >> 8)
		}
		h.Write(buf[:])
	}
	h.Sum(m.digest[:0])
	m.digestOK = true
	return m.digest
}

// CaptureState snapshots the machine's execution and device state. It never
// perturbs the run (it at most caches the image digest) and deep-copies every
// buffer, so the returned state stays valid while the machine keeps running.
// It fails if unserializable hooks are attached (custom ADC source, armed
// fault injector).
func (m *Machine) CaptureState() (*MachineState, error) {
	if m.dev.adcSource != nil {
		return nil, ErrCustomADCSource
	}
	if m.injectFn != nil {
		return nil, ErrArmedInjector
	}
	st := &MachineState{
		Data:        append([]byte(nil), m.data[:]...),
		PC:          m.pc,
		Cycle:       m.cycle,
		Idle:        m.idle,
		Insts:       m.insts,
		Sleeping:    m.sleeping,
		Pending:     m.pending,
		Stepwise:    m.stepwise,
		GuardLo:     m.guardLo,
		GuardHi:     m.guardHi,
		GuardOn:     m.guardOn,
		SampleEvery: m.sampleEvery,
		SampleNext:  m.sampleNext,
		CodeEnd:     m.codeEnd,
		FlashHash:   m.flashHash(),
		Dev: DeviceState{
			NextEvent:      m.dev.nextEvent,
			T0BaseCycle:    m.dev.t0BaseCycle,
			T0BaseCount:    m.dev.t0BaseCount,
			T0Prescale:     m.dev.t0Prescale,
			ADCBusyUntil:   m.dev.adcBusyUntil,
			ADCPending:     m.dev.adcPending,
			ADCLFSR:        m.dev.adcLFSR,
			UARTBusyUntil:  m.dev.uartBusyUntil,
			UARTPendingB:   m.dev.uartPendingB,
			UARTPending:    m.dev.uartPending,
			UARTOut:        append([]byte(nil), m.dev.uartOut...),
			RadioBusyUntil: m.dev.radioBusyUntil,
			RadioPendingB:  m.dev.radioPendingB,
			RadioPending:   m.dev.radioPending,
			RadioOut:       append([]RadioFrame(nil), m.dev.radioOut...),
			RadioIn:        append([]byte(nil), m.dev.radioIn...),
		},
	}
	if m.fault != nil {
		st.FaultKind = uint8(m.fault.Kind)
		st.FaultPC = m.fault.PC
		st.FaultAddr = m.fault.Addr
		st.FaultNote = m.fault.Note
	}
	return st, nil
}

// RestoreState applies a captured state to m, which must already hold the
// identical program image the snapshot was taken against (validated by
// hash — flash itself is not part of the state). Every buffer is deep-copied
// out of st, so neither the machine nor a caller-held snapshot aliases the
// other afterward. Attached hooks (trap handler, recorder, profiler,
// sampler) are left as wired by the machine's constructor; only the
// sampler's schedule is restored, and its interval must match the
// snapshot's. The hook schedule's due cycle is recomputed from it.
func (m *Machine) RestoreState(st *MachineState) error {
	if len(st.Data) != DataSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrSnapshotDataSize, len(st.Data), DataSize)
	}
	if st.FlashHash != m.flashHash() {
		return ErrImageMismatch
	}
	if m.sampleFn != nil && m.sampleEvery != st.SampleEvery {
		return fmt.Errorf("%w: target %d, snapshot %d",
			ErrSamplerMismatch, m.sampleEvery, st.SampleEvery)
	}
	copy(m.data[:], st.Data)
	m.pc = st.PC & (FlashWords - 1)
	m.cycle = st.Cycle
	m.idle = st.Idle
	m.insts = st.Insts
	m.sleeping = st.Sleeping
	if st.FaultKind != 0 {
		m.fault = &Fault{Kind: FaultKind(st.FaultKind), PC: st.FaultPC,
			Addr: st.FaultAddr, Note: st.FaultNote}
	} else {
		m.fault = nil
	}
	m.pending = st.Pending
	m.stepwise = st.Stepwise
	m.guardLo, m.guardHi, m.guardOn = st.GuardLo, st.GuardHi, st.GuardOn
	if m.sampleFn != nil {
		m.sampleNext = st.SampleNext
	}
	m.schedule()
	m.codeEnd = st.CodeEnd
	// The block cache is derived state, like the micro-op cache: the restore
	// target may have been running unrelated code (its flash merely hashes
	// equal now), so drop every translated block and landing counter rather
	// than trust them. They rebuild from scratch, exactly as uops refetch.
	m.xl.reset()
	m.dev = devices{
		nextEvent:      st.Dev.NextEvent,
		t0BaseCycle:    st.Dev.T0BaseCycle,
		t0BaseCount:    st.Dev.T0BaseCount,
		t0Prescale:     st.Dev.T0Prescale,
		adcBusyUntil:   st.Dev.ADCBusyUntil,
		adcPending:     st.Dev.ADCPending,
		adcLFSR:        st.Dev.ADCLFSR,
		uartBusyUntil:  st.Dev.UARTBusyUntil,
		uartPendingB:   st.Dev.UARTPendingB,
		uartPending:    st.Dev.UARTPending,
		uartOut:        append([]byte(nil), st.Dev.UARTOut...),
		radioBusyUntil: st.Dev.RadioBusyUntil,
		radioPendingB:  st.Dev.RadioPendingB,
		radioPending:   st.Dev.RadioPending,
		radioOut:       append([]RadioFrame(nil), st.Dev.RadioOut...),
		radioIn:        append([]byte(nil), st.Dev.RadioIn...),
	}
	return nil
}
