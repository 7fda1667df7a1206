package mcu

import (
	"repro/internal/ioregs"
	"repro/internal/trace"
)

// noEvent means no device event is scheduled.
const noEvent = ^uint64(0)

// Device timing constants.
const (
	// ADCCycles is one conversion at the /128 ADC prescaler (13 ADC clocks).
	ADCCycles = 13 * 128
	// UARTByteCycles is one byte at 57.6 kbaud (10 bits/byte).
	UARTByteCycles = 1280
	// RadioByteCycles is one byte on a CC1000-class 19.2 kbaud radio link.
	RadioByteCycles = 3840
	// Timer3Prescale is the /8 prescaler of the kernel's global clock.
	Timer3Prescale = 8
)

// timer0Prescale maps TCCR0 clock-select bits to the prescaler divisor
// (0 = stopped), following the ATmega128 Timer0 table.
var timer0Prescale = [8]uint32{0, 1, 8, 32, 64, 128, 256, 1024}

// RadioFrame is one byte transmitted on the synthetic radio, with the cycle
// at which its transmission completed.
type RadioFrame struct {
	Byte  byte
	Cycle uint64
}

// devices bundles the peripheral state of a Machine.
type devices struct {
	nextEvent uint64

	// Timer0.
	t0BaseCycle uint64 // cycle at which TCNT0 held t0BaseCount
	t0BaseCount uint16
	t0Prescale  uint32 // 0 = stopped

	// ADC. adcSource, when non-nil, overrides the built-in LFSR sensor;
	// adcLFSR is the built-in generator's register, held as plain data so a
	// checkpoint can serialize the stream position (a closure could not be).
	adcBusyUntil uint64
	adcPending   bool
	adcSource    func(channel uint8) uint16
	adcLFSR      uint16

	// UART.
	uartBusyUntil uint64
	uartPendingB  byte
	uartPending   bool
	uartOut       []byte

	// Radio.
	radioBusyUntil uint64
	radioPendingB  byte
	radioPending   bool
	radioOut       []RadioFrame
	radioIn        []byte
}

func (d *devices) reset() {
	*d = devices{nextEvent: noEvent, adcSource: d.adcSource, adcLFSR: adcLFSRSeed}
}

// adcLFSRSeed is the reset state of the built-in ADC noise generator.
const adcLFSRSeed = 0xACE1

// adcSample produces the next synthetic sensor reading: the custom source if
// one is installed, otherwise a 16-bit LFSR producing deterministic
// pseudo-random 10-bit values.
func (d *devices) adcSample(channel uint8) uint16 {
	if d.adcSource != nil {
		return d.adcSource(channel)
	}
	bit := (d.adcLFSR ^ d.adcLFSR>>2 ^ d.adcLFSR>>3 ^ d.adcLFSR>>5) & 1
	d.adcLFSR = d.adcLFSR>>1 | bit<<15
	return (d.adcLFSR + uint16(channel)*37) & 0x3FF
}

// SetADCSource installs a synthetic sensor: the function is called once per
// completed conversion with the selected channel.
func (m *Machine) SetADCSource(f func(channel uint8) uint16) { m.dev.adcSource = f }

// UARTOutput returns a copy of all bytes transmitted on UART0 so far. A
// copy, not the live buffer: the machine keeps appending to its own slice,
// and handing out the backing array would let a later transmission overwrite
// a snapshot the caller already holds (or race with a reader when machines
// run on different goroutines).
func (m *Machine) UARTOutput() []byte { return append([]byte(nil), m.dev.uartOut...) }

// RadioOutput returns a copy of all bytes transmitted on the radio so far
// (see UARTOutput for why a copy).
func (m *Machine) RadioOutput() []RadioFrame { return append([]RadioFrame(nil), m.dev.radioOut...) }

// InjectRadio queues bytes for the application to read from RDR.
func (m *Machine) InjectRadio(b []byte) {
	m.dev.radioIn = append(m.dev.radioIn, b...)
	if len(m.dev.radioIn) > 0 {
		m.pending |= intRadioRx
	}
}

// syncDevices fires every device event whose time has come and recomputes
// the next event cycle.
func (m *Machine) syncDevices() {
	d := &m.dev
	now := m.cycle

	// Timer0 overflow.
	if d.t0Prescale != 0 {
		for {
			of := d.timer0OverflowCycle()
			if of > now {
				break
			}
			// Overflow: set TOV0, maybe raise the interrupt, rebase.
			m.data[IOBase+ioregs.TIFR] |= ioregs.TOV0
			if m.data[IOBase+ioregs.TIMSK]&ioregs.TOIE0 != 0 {
				m.pending |= intTimer0
			}
			d.t0BaseCycle = of
			d.t0BaseCount = 0
		}
	}

	// ADC completion.
	if d.adcPending && now >= d.adcBusyUntil {
		v := d.adcSample(m.data[IOBase+ioregs.ADMUX] & 7)
		m.data[IOBase+ioregs.ADCL] = byte(v)
		m.data[IOBase+ioregs.ADCH] = byte(v >> 8)
		m.data[IOBase+ioregs.ADCSRA] &^= ioregs.ADSC
		d.adcPending = false
		m.powerEvent(trace.PowerADC, false)
	}

	// UART byte done.
	if d.uartPending && now >= d.uartBusyUntil {
		d.uartOut = append(d.uartOut, d.uartPendingB)
		d.uartPending = false
		m.powerEvent(trace.PowerUART, false)
	}

	// Radio byte done.
	if d.radioPending && now >= d.radioBusyUntil {
		d.radioOut = append(d.radioOut, RadioFrame{Byte: d.radioPendingB, Cycle: d.radioBusyUntil})
		d.radioPending = false
		m.powerEvent(trace.PowerRadio, false)
	}

	m.recomputeNextEvent()
}

// timer0OverflowCycle returns the cycle at which TCNT0 next wraps.
func (d *devices) timer0OverflowCycle() uint64 {
	remaining := uint64(256-d.t0BaseCount) * uint64(d.t0Prescale)
	return d.t0BaseCycle + remaining
}

func (m *Machine) recomputeNextEvent() { m.dev.nextEvent = m.dev.horizon() }

// horizon returns the earliest cycle at which a device timeline fires, or
// noEvent: the value nextEvent is kept at.
func (d *devices) horizon() uint64 {
	next := uint64(noEvent)
	if d.t0Prescale != 0 {
		if of := d.timer0OverflowCycle(); of < next {
			next = of
		}
	}
	if d.adcPending && d.adcBusyUntil < next {
		next = d.adcBusyUntil
	}
	if d.uartPending && d.uartBusyUntil < next {
		next = d.uartBusyUntil
	}
	if d.radioPending && d.radioBusyUntil < next {
		next = d.radioBusyUntil
	}
	return next
}

// timer0Count returns the live TCNT0 value.
func (m *Machine) timer0Count() byte {
	d := &m.dev
	if d.t0Prescale == 0 {
		return byte(d.t0BaseCount)
	}
	ticks := (m.cycle - d.t0BaseCycle) / uint64(d.t0Prescale)
	return byte(uint64(d.t0BaseCount) + ticks)
}

// timer3Count returns the live 16-bit kernel-clock value (clk/8).
func (m *Machine) timer3Count() uint16 {
	return uint16(m.cycle / Timer3Prescale)
}

// Timer3Count exposes the kernel clock (the kernel virtualizes application
// access to it, Section IV-A).
func (m *Machine) Timer3Count() uint16 { return m.timer3Count() }

// readIO reads a data-space address below SRAMBase (registers and I/O) with
// device side effects.
func (m *Machine) readIO(addr uint16) byte {
	switch addr {
	case IOBase + ioregs.TCNT0:
		return m.timer0Count()
	case IOBase + ioregs.ADCSRA:
		if m.dev.adcPending && m.cycle >= m.dev.adcBusyUntil {
			m.syncDevices()
		}
		return m.data[addr]
	case IOBase + ioregs.UCSR0A:
		v := m.data[addr] &^ byte(ioregs.UDRE)
		if !m.dev.uartPending || m.cycle >= m.dev.uartBusyUntil {
			v |= ioregs.UDRE
		}
		return v
	case IOBase + ioregs.RSR:
		var v byte
		if !m.dev.radioPending || m.cycle >= m.dev.radioBusyUntil {
			v |= ioregs.RadioTxOK
		}
		if len(m.dev.radioIn) > 0 {
			v |= ioregs.RadioRxOK
		}
		return v
	case IOBase + ioregs.RDR:
		if len(m.dev.radioIn) == 0 {
			return 0
		}
		b := m.dev.radioIn[0]
		m.dev.radioIn = m.dev.radioIn[1:]
		return b
	case ioregs.TCNT3L:
		// Reading the low byte latches the high byte, as on real hardware.
		t := m.timer3Count()
		m.data[ioregs.TCNT3H] = byte(t >> 8)
		return byte(t)
	case ioregs.TCNT3H:
		return m.data[ioregs.TCNT3H]
	}
	return m.data[addr]
}

// writeIO writes a data-space address below SRAMBase with device side
// effects.
func (m *Machine) writeIO(addr uint16, v byte) {
	switch addr {
	case IOBase + ioregs.TCCR0:
		// Rebase the counter at the moment the prescaler changes.
		wasOn := m.dev.t0Prescale != 0
		m.dev.t0BaseCount = uint16(m.timer0Count())
		m.dev.t0BaseCycle = m.cycle
		m.dev.t0Prescale = timer0Prescale[v&7]
		m.data[addr] = v
		m.recomputeNextEvent()
		if isOn := m.dev.t0Prescale != 0; m.meter != nil && isOn != wasOn {
			if isOn {
				m.meter.TimerOn(m.cycle)
			} else {
				m.meter.TimerOff(m.cycle)
			}
			m.powerEvent(trace.PowerTimer, isOn)
		}
	case IOBase + ioregs.TCNT0:
		m.dev.t0BaseCount = uint16(v)
		m.dev.t0BaseCycle = m.cycle
		m.data[addr] = v
		m.recomputeNextEvent()
	case IOBase + ioregs.TIFR:
		// Flags clear by writing 1 to them.
		m.data[addr] &^= v
	case IOBase + ioregs.ADCSRA:
		m.data[addr] = v
		if v&ioregs.ADEN != 0 && v&ioregs.ADSC != 0 && !m.dev.adcPending {
			m.dev.adcPending = true
			m.dev.adcBusyUntil = m.cycle + ADCCycles
			m.recomputeNextEvent()
			if m.meter != nil {
				m.meter.ADCConversion(ADCCycles)
				m.powerEvent(trace.PowerADC, true)
			}
		}
	case IOBase + ioregs.UDR0:
		// Transmit; software is expected to poll UDRE first.
		if m.dev.uartPending && m.cycle < m.dev.uartBusyUntil {
			// Overrun: previous byte is lost, as on hardware.
			m.dev.uartPendingB = v
			return
		}
		if m.dev.uartPending {
			m.syncDevices()
		}
		m.dev.uartPending = true
		m.dev.uartPendingB = v
		m.dev.uartBusyUntil = m.cycle + UARTByteCycles
		m.recomputeNextEvent()
		if m.meter != nil {
			// Charged at span start: the byte's busy window is fixed, so
			// its energy is committed the moment transmission begins. The
			// overrun path above starts no new window and charges nothing.
			m.meter.UARTByte(UARTByteCycles)
			m.powerEvent(trace.PowerUART, true)
		}
	case IOBase + ioregs.RDR:
		if m.dev.radioPending && m.cycle < m.dev.radioBusyUntil {
			m.dev.radioPendingB = v
			return
		}
		if m.dev.radioPending {
			m.syncDevices()
		}
		m.dev.radioPending = true
		m.dev.radioPendingB = v
		m.dev.radioBusyUntil = m.cycle + RadioByteCycles
		m.recomputeNextEvent()
		if m.meter != nil {
			m.meter.RadioByte(RadioByteCycles)
			m.powerEvent(trace.PowerRadio, true)
		}
	default:
		m.data[addr] = v
	}
}

// FlushDevices fires any device events whose time has come (after a manual
// AddCycles) — harness helper to collect in-flight UART/radio bytes.
func (m *Machine) FlushDevices() { m.syncDevices() }
