package mcu

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
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
	// ErrDeviceState: the snapshot's device fields are impossible (a Timer0
	// count or prescaler TCCR0 cannot produce) or disagree with each other
	// (a next-event cycle that is not the earliest device event).
	ErrDeviceState = errors.New("mcu: inconsistent device state in snapshot")
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
// validated instead of carried, so a restore target must have the same
// programs deployed — which it reuses, optionally copy-on-write shared via
// AdoptImage. A captured state refers to the frozen image it was taken
// against; a decoded one carries that image's digest in FlashHash.
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
	FlashHash [32]byte // the image digest of a decoded state; see ImageDigest

	Dev DeviceState

	img *flashImage // the image a captured state was taken against
}

// ImageDigest returns the SHA-256 of the program image the state was taken
// against: the digest of its frozen image for a captured state (computed
// at most once per image), FlashHash for a decoded one.
func (st *MachineState) ImageDigest() [32]byte {
	if st.img != nil {
		return st.img.digest()
	}
	return st.FlashHash
}

// flashImage is one frozen program image: a flash page table whose pages
// are all shared, so no machine writes them again, and the image's digest.
// Captures record it and adopters share it, so a restore recognises a state
// taken against its own image by identity; only a state from another image
// (or a decoded one) is compared by digest.
type flashImage struct {
	flash [numPages]*page[uint16]
	once  sync.Once
	sum   [32]byte
}

// image returns m's frozen image, freezing flash into a new one when m has
// none (since its last LoadFlash): its pages become shared, so a later
// LoadFlash copies what it writes. Concurrent adopters of a quiescent m may
// race to freeze it; the compare-and-swap keeps one image for them all.
func (m *Machine) image() *flashImage {
	if im := m.img.Load(); im != nil {
		return im
	}
	im := new(flashImage)
	for i, p := range m.flash {
		im.flash[i] = sharePage(p)
	}
	if !m.img.CompareAndSwap(nil, im) {
		return m.img.Load()
	}
	return im
}

// digest returns the SHA-256 of the whole image (all FlashWords words,
// little-endian), computing it on the first call.
func (im *flashImage) digest() [32]byte {
	im.once.Do(func() {
		h := sha256.New()
		var buf [2 * pageWords]byte
		for _, p := range im.flash {
			for j, w := range p.v {
				buf[2*j] = byte(w)
				buf[2*j+1] = byte(w >> 8)
			}
			h.Write(buf[:])
		}
		h.Sum(im.sum[:0])
	})
	return im.sum
}

// CaptureState snapshots the machine's execution and device state. It never
// perturbs the run (it at most freezes the program image, so a later
// LoadFlash copies the pages it writes) and deep-copies every buffer, so the
// returned state stays valid while the machine keeps running.
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
		img:         m.image(),
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
// identical program image the snapshot was taken against — flash itself is
// not part of the state. A state captured against m's own image (m's, or
// one m adopted) is accepted as it is; any other is compared by image
// digest, each computed at most once per image. Every buffer is deep-copied
// out of st, so neither the machine nor a caller-held snapshot aliases the
// other afterward. Attached hooks (trap handler, recorder, profiler,
// sampler) are left as wired by the machine's constructor; only the
// sampler's schedule is restored, and its interval must match the
// snapshot's. The hook schedule's due cycle is recomputed from it, and the
// device event horizon is checked against the device timelines it derives
// from.
func (m *Machine) RestoreState(st *MachineState) error {
	if len(st.Data) != DataSize {
		return fmt.Errorf("%w: %d bytes, want %d", ErrSnapshotDataSize, len(st.Data), DataSize)
	}
	if im := m.image(); st.img != im && st.ImageDigest() != im.digest() {
		return ErrImageMismatch
	}
	if m.sampleFn != nil && m.sampleEvery != st.SampleEvery {
		return fmt.Errorf("%w: target %d, snapshot %d",
			ErrSamplerMismatch, m.sampleEvery, st.SampleEvery)
	}
	switch {
	case st.Dev.T0BaseCount > 255:
		return fmt.Errorf("%w: Timer0 count %d", ErrDeviceState, st.Dev.T0BaseCount)
	case !slices.Contains(timer0Prescale[:], st.Dev.T0Prescale):
		return fmt.Errorf("%w: Timer0 prescaler %d", ErrDeviceState, st.Dev.T0Prescale)
	}
	dev := devices{
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
	// The horizon is derived state: a restored machine sleeps and fuses up
	// to it, so one past a pending event would lose that event.
	if dev.nextEvent = dev.horizon(); dev.nextEvent != st.Dev.NextEvent {
		return fmt.Errorf("%w: next event at cycle %d, device timelines say %d",
			ErrDeviceState, st.Dev.NextEvent, dev.nextEvent)
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
	// The micro-op and block caches stay: each entry depends only on the
	// flash words it decoded, which the image check just proved equal.
	m.dev = dev
	return nil
}
