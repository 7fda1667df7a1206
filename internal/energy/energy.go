// Package energy is a deterministic, cycle-domain charge ledger for the
// simulated MICA2 node. Each device is modeled as a power-state machine —
// the CPU is active or asleep, the radio is off or transmitting a byte, the
// ADC is idle or converting, Timer0 is stopped or counting — and every state
// carries an integer current-draw coefficient in picojoules per cycle.
// All accounting is integer math on uint64 counters, so a joules report is
// byte-identical across runs, hosts, and worker counts, and the full ledger
// serializes losslessly into a snapshot.
//
// The ledger is fed by nil-disabled hooks at the existing mcu device
// transition points (see Machine.SetEnergyMeter): a span is charged when it
// starts (a radio/UART byte write, an ADC conversion start) or accrued when
// it closes (a timer prescaler change, a sleep advance), so no per-cycle or
// per-instruction work happens anywhere. A detached meter costs one pointer
// comparison at each transition site; none of the sites is on the
// interpreter's per-instruction path.
package energy

import "fmt"

// Coefficients: picojoules per CPU cycle at the MICA2's 3 V supply and
// 7.3728 MHz clock. One milliamp of draw costs 3 V x 1 mA / 7.3728 MHz =
// 406.9 pJ per cycle; each constant below is that factor times the current
// draw of the component, rounded to the nearest integer picojoule.
//
// Draw figures (MICA2 / ATmega128L / CC1000 data-sheet class values):
//
//	CPU active  8 mA      CPU sleep  15 uA
//	radio TX    27 mA     ADC        1 mA
//	UART        0.5 mA    Timer0     30 uA
//
// Device coefficients are the draw of the device alone, additive on top of
// whatever the CPU state costs in the same cycles.
const (
	CPUActivePJ = 3255  // 8 mA: CPU executing instructions
	CPUSleepPJ  = 6     // 15 uA: CPU in sleep mode (idle cycles)
	RadioTxPJ   = 10986 // 27 mA: CC1000 transmitting, per busy cycle
	ADCPJ       = 407   // 1 mA: ADC mid-conversion, per busy cycle
	UARTPJ      = 203   // 0.5 mA: UART shifting a byte out, per busy cycle
	TimerPJ     = 12    // 30 uA: Timer0 counting, per cycle enabled
)

// Meter is the charge ledger of one node. The zero value is a valid, empty
// meter. A Meter is single-goroutine, like the Machine it attaches to: the
// worker pool gives every machine (and so every meter) a goroutine of its
// own, and results merge as values.
type Meter struct {
	// CPU sleep cycles accrued (active cycles are derived: now - sleep).
	sleepCycles uint64

	// Span devices: each started span is charged in full at its start
	// (the span length is fixed by the device timing constants, so the
	// energy is committed the moment the transmission/conversion begins).
	radioBytes  uint64
	radioCycles uint64
	uartBytes   uint64
	uartCycles  uint64
	adcConvs    uint64
	adcCycles   uint64

	// Timer0: an open-ended state, accrued when it closes (prescaler
	// stopped) or lazily at report time.
	timerCycles uint64 // closed-span cycles
	timerOn     bool
	timerSince  uint64 // cycle the open span started at
}

// SleepCycles accrues n cycles spent in CPU sleep mode.
func (m *Meter) SleepCycles(n uint64) { m.sleepCycles += n }

// RadioByte charges one transmitted radio byte occupying the radio for
// cycles cycles.
func (m *Meter) RadioByte(cycles uint64) {
	m.radioBytes++
	m.radioCycles += cycles
}

// UARTByte charges one transmitted UART byte occupying the UART for cycles
// cycles.
func (m *Meter) UARTByte(cycles uint64) {
	m.uartBytes++
	m.uartCycles += cycles
}

// ADCConversion charges one ADC conversion occupying the ADC for cycles
// cycles.
func (m *Meter) ADCConversion(cycles uint64) {
	m.adcConvs++
	m.adcCycles += cycles
}

// TimerOn opens a timer span at the given cycle. Opening an already-open
// span is a no-op (the prescaler changed value but stayed enabled).
func (m *Meter) TimerOn(cycle uint64) {
	if m.timerOn {
		return
	}
	m.timerOn = true
	m.timerSince = cycle
}

// TimerOff closes the open timer span at the given cycle. Closing a closed
// span is a no-op.
func (m *Meter) TimerOff(cycle uint64) {
	if !m.timerOn {
		return
	}
	m.timerCycles += cycle - m.timerSince
	m.timerOn = false
	m.timerSince = 0
}

// Breakdown is a point-in-time joules report: per-component picojoule
// totals plus the input counts they were computed from. All fields are
// integers, so a Breakdown marshals byte-identically everywhere.
type Breakdown struct {
	CPUActiveCycles uint64 `json:"cpu_active_cycles"`
	CPUSleepCycles  uint64 `json:"cpu_sleep_cycles"`
	CPUActivePJ     uint64 `json:"cpu_active_pj"`
	CPUSleepPJ      uint64 `json:"cpu_sleep_pj"`
	RadioBytes      uint64 `json:"radio_bytes"`
	RadioPJ         uint64 `json:"radio_pj"`
	UARTBytes       uint64 `json:"uart_bytes"`
	UARTPJ          uint64 `json:"uart_pj"`
	ADCConversions  uint64 `json:"adc_conversions"`
	ADCPJ           uint64 `json:"adc_pj"`
	TimerCycles     uint64 `json:"timer_cycles"`
	TimerPJ         uint64 `json:"timer_pj"`
	TotalPJ         uint64 `json:"total_pj"`
}

// Report computes the joules breakdown as of cycle now. The meter must have
// observed the whole run (attached before the first cycle), so CPU active
// cycles are now minus the accrued sleep cycles. Report does not mutate the
// meter; an open timer span is included up to now without being closed.
func (m *Meter) Report(now uint64) Breakdown {
	timerCyc := m.timerCycles
	if m.timerOn && now > m.timerSince {
		timerCyc += now - m.timerSince
	}
	b := Breakdown{
		CPUActiveCycles: now - m.sleepCycles,
		CPUSleepCycles:  m.sleepCycles,
		RadioBytes:      m.radioBytes,
		UARTBytes:       m.uartBytes,
		ADCConversions:  m.adcConvs,
		TimerCycles:     timerCyc,
	}
	b.CPUActivePJ = b.CPUActiveCycles * CPUActivePJ
	b.CPUSleepPJ = b.CPUSleepCycles * CPUSleepPJ
	b.RadioPJ = m.radioCycles * RadioTxPJ
	b.UARTPJ = m.uartCycles * UARTPJ
	b.ADCPJ = m.adcCycles * ADCPJ
	b.TimerPJ = timerCyc * TimerPJ
	b.TotalPJ = b.CPUActivePJ + b.CPUSleepPJ + b.RadioPJ + b.UARTPJ + b.ADCPJ + b.TimerPJ
	return b
}

// CPUPJ estimates the energy of a pure-CPU cycle ledger: cycles all spent
// active. The kernel uses it to attribute per-task and per-service joules
// from the cycle ledgers it already keeps.
func CPUPJ(cycles uint64) uint64 { return cycles * CPUActivePJ }

// FormatPJ renders a picojoule total as millijoules with microjoule
// precision, using integer math only ("12.345 mJ").
func FormatPJ(pj uint64) string {
	return fmt.Sprintf("%d.%03d mJ", pj/1_000_000_000, pj%1_000_000_000/1_000_000)
}

// MeterState is the serializable state of a Meter, so a restored run's
// joules report is byte-identical to an uninterrupted one.
type MeterState struct {
	SleepCycles uint64
	RadioBytes  uint64
	RadioCycles uint64
	UARTBytes   uint64
	UARTCycles  uint64
	ADCConvs    uint64
	ADCCycles   uint64
	TimerCycles uint64
	TimerOn     bool
	TimerSince  uint64
}

// CaptureState snapshots the meter. The state is a plain value copy, so it
// stays valid while the meter keeps accruing.
func (m *Meter) CaptureState() *MeterState {
	return &MeterState{
		SleepCycles: m.sleepCycles,
		RadioBytes:  m.radioBytes,
		RadioCycles: m.radioCycles,
		UARTBytes:   m.uartBytes,
		UARTCycles:  m.uartCycles,
		ADCConvs:    m.adcConvs,
		ADCCycles:   m.adcCycles,
		TimerCycles: m.timerCycles,
		TimerOn:     m.timerOn,
		TimerSince:  m.timerSince,
	}
}

// RestoreState replaces the meter's contents with a captured state.
func (m *Meter) RestoreState(st *MeterState) {
	m.sleepCycles = st.SleepCycles
	m.radioBytes = st.RadioBytes
	m.radioCycles = st.RadioCycles
	m.uartBytes = st.UARTBytes
	m.uartCycles = st.UARTCycles
	m.adcConvs = st.ADCConvs
	m.adcCycles = st.ADCCycles
	m.timerCycles = st.TimerCycles
	m.timerOn = st.TimerOn
	m.timerSince = st.TimerSince
}
