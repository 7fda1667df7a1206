package mcu

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// runPoll runs src under one execution mode (stepwise, or a translation
// threshold: 1 every landing, 0 the default) until it ends: at BREAK, or,
// when trap installs injectTrap (whose KTRAP 8 jumps back over the two
// words before it), at the KTRAP 9 halt. setup runs before the first cycle.
func runPoll(t *testing.T, src string, stepwise bool, threshold int, trap bool, setup func(*Machine)) *Machine {
	t.Helper()
	m := load(t, src)
	m.SetStepwise(stepwise)
	m.SetTranslation(threshold)
	m.SetSP(0x10FF)
	want := FaultBreak
	if trap {
		m.SetTrapHandler(injectTrap, injectRepeat)
		want = FaultHalt
	}
	if setup != nil {
		setup(m)
	}
	err := m.Run(2_000_000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != want {
		t.Fatalf("expected a clean %v stop, got %v (pc=%#x, cycle %d)", want, err, m.PC(), m.Cycles())
	}
	return m
}

// requireSameDevices extends requireSameState to what the architectural
// state does not show: device timelines and queues, pending interrupts,
// idle cycles and sleep.
func requireSameDevices(t *testing.T, name string, got, want *Machine) {
	t.Helper()
	if !reflect.DeepEqual(got.dev, want.dev) {
		t.Errorf("%s: devices %+v, want %+v", name, got.dev, want.dev)
	}
	if got.pending != want.pending || got.idle != want.idle || got.sleeping != want.sleeping {
		t.Errorf("%s: pending/idle/sleeping %d/%d/%v, want %d/%d/%v", name,
			got.pending, got.idle, got.sleeping, want.pending, want.idle, want.sleeping)
	}
}

// pollVectors is a vector table whose every interrupt returns at once, for
// the rows that enable interrupts (the radio's RX interrupt must be taken
// before the fused tier runs).
const pollVectors = `
    jmp main
    reti
    nop
    reti
    nop
    reti
    nop
    reti
    nop
main:
`

// TestPollLoopFastForward runs each device-poll idiom stepwise, at
// threshold 1 and at the default threshold, and requires the same final
// state from all three. Stable polls must be fast-forwarded in both fused
// modes; polls whose loaded bytes move with the clock or with each read,
// and loops that shift bytes through the register file, never may.
func TestPollLoopFastForward(t *testing.T) {
	cases := []struct {
		name   string
		stable bool
		trap   bool
		setup  func(*Machine)
		src    string
	}{
		{name: "UCSR0A wait", stable: true, src: `
    ldi r16, 3
tx:
    out UDR0, r16
putc:
    in r17, UCSR0A
    sbrs r17, 5
    rjmp putc
    dec r16
    brne tx
    break
`},
		{name: "ADCSRA wait", stable: true, src: `
    ldi r20, 3
sample:
    ldi r16, 0xC0        ; ADEN|ADSC
    out ADCSRA, r16
wait:
    in r16, ADCSRA
    sbrc r16, 6
    rjmp wait
    in r18, ADCL
    add r24, r18
    dec r20
    brne sample
    break
`},
		{name: "RSR wait", stable: true, src: `
    ldi r17, 3
txloop:
    in r16, RSR
    sbrs r16, 0          ; TX ready?
    rjmp txloop
    out RDR, r17
    dec r17
    brne txloop
    break
`},
		{name: "TIFR wait", stable: true, src: `
    ldi r16, 3           ; clk/32
    out TCCR0, r16
    ldi r20, 2
wait:
    in r17, TIFR
    sbrs r17, 0          ; TOV0
    rjmp wait
    ldi r17, 1
    out TIFR, r17
    dec r20
    brne wait
    break
`},
		{name: "sbis/sbic wait", stable: true, src: `
    ldi r16, 0x55
    out UDR0, r16
txw:
    sbis UCSR0A, 5
    rjmp txw
    ldi r16, 0xC0
    out ADCSRA, r16
adw:
    sbic ADCSRA, 6
    rjmp adw
    break
`},
		{name: "LDS from I/O", stable: true, src: `
    ldi r16, 0x55
    out UDR0, r16
putc:
    lds r17, UCSR0A+0x20
    lds r18, PINB+0x20
    sbrs r17, 5
    rjmp putc
    break
`},
		{name: "trap-closed UCSR0A wait", stable: true, trap: true, src: `
    ldi r16, 3
tx:
    out UDR0, r16
putc:
    in r17, UCSR0A
    sbrs r17, 5
    ktrap 8              ; the virtualized rjmp putc
    dec r16
    brne tx
    ktrap 9
`},
		{name: "TCNT0 bit poll", src: `
    ldi r16, 2           ; clk/8
    out TCCR0, r16
    ldi r20, 3
wait:
    in r16, TCNT0
    sbrs r16, 7
    rjmp wait
hold:
    in r16, TCNT0
    sbrc r16, 7
    rjmp hold
    dec r20
    brne wait
    break
`},
		{name: "RDR poll", setup: func(m *Machine) {
			b := make([]byte, 40)
			b[len(b)-1] = 0x80
			m.InjectRadio(b)
		}, src: pollVectors + `
    sei
    nop
wait:
    in r16, RDR
    sbrs r16, 7
    rjmp wait
    break
`},
		{name: "register-file chain", setup: func(m *Machine) {
			m.SetReg(19, 1)
		}, src: `
loop:
    lds r16, 17
    lds r17, 18
    lds r18, 19
    sbrs r16, 0
    rjmp loop
    break
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slow := runPoll(t, tc.src, true, 0, tc.trap, tc.setup)
			if st := slow.TranslationStats(); st.SpinInsts != 0 {
				t.Fatalf("stepwise run fast-forwarded: %+v", st)
			}
			for _, mode := range []struct {
				name      string
				threshold int
			}{{"threshold 1", 1}, {"default threshold", 0}} {
				got := runPoll(t, tc.src, false, mode.threshold, tc.trap, tc.setup)
				requireSameState(t, mode.name, got, slow)
				requireSameDevices(t, mode.name, got, slow)
				st := got.TranslationStats()
				if tc.stable && st.SpinInsts == 0 {
					t.Errorf("%s: stable poll not fast-forwarded: %+v", mode.name, st)
				}
				if !tc.stable && st.SpinInsts != 0 {
					t.Errorf("%s: unstable poll fast-forwarded %d instructions", mode.name, st.SpinInsts)
				}
				if st.SpinInsts > st.FusedInsts {
					t.Errorf("%s: SpinInsts %d exceed FusedInsts %d", mode.name, st.SpinInsts, st.FusedInsts)
				}
			}
		})
	}
}

// pollLoadAddrs are the data addresses FuzzPollLoop draws loads from: the
// register file, the stable and the unstable I/O bytes, SREG, extended I/O
// and SRAM. A fuzzed byte indexes it or, past its end, is an address of
// its own.
var pollLoadAddrs = []uint16{
	0x10, 0x11, 0x2B, 0x26, 0x2E, 0x56, 0x36, 0x52, 0x2F, 0x88, 0x89,
	0x5F, 0x5D, 0x7C, 0x100, 0x200,
}

// pollSrc builds FuzzPollLoop's program from its inputs: device activity
// chosen by the bits of dev, then a loop of up to eight loads (IN from any
// I/O address or LDS from pollLoadAddrs and arbitrary data addresses),
// closed by a skip over a jump back to the loop's head. The low two bits of
// skip pick SBRS, SBRC, SBIS/SBIC or CPSE; the rest are its operands.
func pollSrc(body []byte, skip uint16, dev byte) string {
	var b strings.Builder
	b.WriteString(pollVectors)
	if dev&1 != 0 {
		fmt.Fprintf(&b, "    ldi r16, %d\n    out TCCR0, r16\n", 1+dev>>5)
	}
	if dev&2 != 0 {
		b.WriteString("    ldi r16, 1\n    out TIMSK, r16\n")
	}
	if dev&4 != 0 {
		b.WriteString("    ldi r16, 0xC0\n    out ADCSRA, r16\n")
	}
	if dev&8 != 0 {
		b.WriteString("    out UDR0, r16\n")
	}
	if dev&16 != 0 {
		b.WriteString("    out RDR, r16\n")
	}
	b.WriteString("    sei\nloop:\n")
	if len(body) > 16 {
		body = body[:16]
	}
	for i := 0; i+1 < len(body); i += 2 {
		d := 16 + body[i]&15
		if body[i]&16 != 0 {
			fmt.Fprintf(&b, "    in r%d, %d\n", d, body[i+1]&63)
			continue
		}
		a := uint16(body[i+1])
		if int(a) < len(pollLoadAddrs) {
			a = pollLoadAddrs[a]
		}
		fmt.Fprintf(&b, "    lds r%d, %d\n", d, a)
	}
	r, bit, hi := 16+skip>>3&15, skip>>7&7, skip>>10&31
	switch skip & 3 {
	case 0:
		fmt.Fprintf(&b, "    sbrs r%d, %d\n", r, bit)
	case 1:
		fmt.Fprintf(&b, "    sbrc r%d, %d\n", r, bit)
	case 2:
		op := "sbis"
		if skip&4 != 0 {
			op = "sbic"
		}
		fmt.Fprintf(&b, "    %s %d, %d\n", op, hi, bit)
	default:
		fmt.Fprintf(&b, "    cpse r%d, r%d\n", r, 16+hi&15)
	}
	b.WriteString("    rjmp loop\n    break\n")
	return b.String()
}

// FuzzPollLoop builds random poll loops (pollSrc) over random device
// activity and radio input, and requires a threshold-1 run, which fuses and
// fast-forwards every eligible loop from its first landing, to end in the
// stepwise run's state: same outcome, architectural state and devices.
func FuzzPollLoop(f *testing.F) {
	f.Add([]byte{0x11, 0x0B}, uint16(648), byte(0x08), []byte{}, uint16(3000))             // UCSR0A wait
	f.Add([]byte{0x10, 0x06}, uint16(769), byte(0x04), []byte{}, uint16(3000))             // ADCSRA wait
	f.Add([]byte{0x10, 0x32}, uint16(896), byte(0x01), []byte{}, uint16(9000))             // TCNT0 poll
	f.Add([]byte{0x10, 0x0F}, uint16(896), byte(0x00), []byte{1, 2, 0x80}, uint16(500))    // RDR poll
	f.Add([]byte{0x00, 17, 0x01, 18, 0x02, 19}, uint16(0), byte(0), []byte{}, uint16(800)) // register-file chain
	f.Add([]byte{}, uint16(11906), byte(0x08), []byte{}, uint16(2000))                     // sbis UCSR0A, 5
	f.Fuzz(func(t *testing.T, body []byte, skip uint16, dev byte, radio []byte, limit uint16) {
		src := pollSrc(body, skip, dev)
		run := func(stepwise bool) (*Machine, error) {
			m := load(t, src)
			m.SetStepwise(stepwise)
			m.SetTranslation(1)
			m.SetSP(0x10FF)
			m.SetReg(19, 1)
			if len(radio) > 0 {
				m.InjectRadio(radio)
			}
			return m, m.Run(1000 + uint64(limit)*4)
		}
		slow, errS := run(true)
		got, errF := run(false)
		if (errS == nil) != (errF == nil) || errS != nil && errS.Error() != errF.Error() {
			t.Fatalf("divergent outcome: stepwise %v, fused %v\n%s", errS, errF, src)
		}
		requireSameState(t, "fused-vs-stepwise", got, slow)
		requireSameDevices(t, "fused-vs-stepwise", got, slow)
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
