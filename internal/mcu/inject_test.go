package mcu

import (
	"errors"
	"slices"
	"testing"
)

// TestInjectorFiresOnceAtCycle checks the armed hook fires at the first
// checked step whose clock reached the arm cycle, then disarms.
func TestInjectorFiresOnceAtCycle(t *testing.T) {
	m := load(t, `
main:
    clr r20
loop:
    inc r20
    rjmp loop
`)
	var fired []uint64
	m.SetInjector(50, func(m *Machine) {
		fired = append(fired, m.Cycles())
		m.SetReg(20, 0xAA)
	})
	if err := m.Run(200); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 {
		t.Fatalf("injector fired %d times, want 1", len(fired))
	}
	if fired[0] < 50 || fired[0] > 53 {
		t.Errorf("injector fired at cycle %d, want first boundary at/after 50", fired[0])
	}
	if m.injectFn != nil {
		t.Error("injector still armed after firing")
	}
	// The injected register write took effect on live state: r20 kept
	// incrementing from 0xAA afterwards, so it can't still hold the
	// uninjected count.
	if got := m.Reg(20); got < 0xAA-1 {
		t.Errorf("r20 = %#x, injected value did not take effect", got)
	}
}

// TestInjectorChaining checks a hook can re-arm from inside the callback.
func TestInjectorChaining(t *testing.T) {
	m := load(t, `
loop:
    nop
    rjmp loop
`)
	var fired []uint64
	var arm func(at uint64)
	arm = func(at uint64) {
		m.SetInjector(at, func(m *Machine) {
			fired = append(fired, m.Cycles())
			if len(fired) < 3 {
				arm(at + 40)
			}
		})
	}
	arm(10)
	if err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("chained injector fired %d times, want 3", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Errorf("chained firings not strictly ordered: %v", fired)
		}
	}
}

// TestInjectorDisarmedCycleIdentical checks that arming-then-disarming the
// hook leaves execution cycle-identical to a run that never armed it, and
// that a disarmed machine returns to the fused tier (mirrored by equal
// instruction counts).
func TestInjectorDisarmedCycleIdentical(t *testing.T) {
	src := `
main:
    clr r20
    ldi r16, 200
loop:
    add r20, r16
    dec r16
    brne loop
    break
`
	plain := load(t, src)
	errPlain := plain.Run(0)

	hooked := load(t, src)
	hooked.SetInjector(30, func(m *Machine) {}) // no-op injection
	errHooked := hooked.Run(0)

	var f1, f2 *Fault
	if !errors.As(errPlain, &f1) || !errors.As(errHooked, &f2) || f1.Kind != f2.Kind {
		t.Fatalf("stop mismatch: %v vs %v", errPlain, errHooked)
	}
	if plain.Cycles() != hooked.Cycles() {
		t.Errorf("cycles diverge: plain %d, hooked %d", plain.Cycles(), hooked.Cycles())
	}
	if plain.Instructions() != hooked.Instructions() {
		t.Errorf("instruction counts diverge: plain %d, hooked %d",
			plain.Instructions(), hooked.Instructions())
	}
	if plain.Reg(20) != hooked.Reg(20) {
		t.Errorf("r20 diverges: %#x vs %#x", plain.Reg(20), hooked.Reg(20))
	}
}

// TestFaultingPushLeavesSRAMUntouched is the regression test for the
// partial-write audit: a CALL whose two-byte return-address push cannot
// complete must leave both SRAM and SP exactly as they were, so the kernel's
// grow-and-retry replays it from pristine state.
func TestFaultingPushLeavesSRAMUntouched(t *testing.T) {
	m := load(t, `
main:
    call sub
    break
sub:
    ret
`)
	// SP exactly at the guard floor: the first byte of the return-address
	// push is in range, the second is not. Pre-fix this wrote one byte and
	// moved SP before faulting.
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(lo)
	m.Poke(lo, 0x5A) // sentinel where the partial write used to land
	spBefore := m.SP()
	pcBefore := m.PC()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if got := m.Peek(lo); got != 0x5A {
		t.Errorf("SRAM at %#x = %#x, want untouched sentinel 0x5A", lo, got)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on faulting push: %#x, want %#x", m.SP(), spBefore)
	}
	if m.PC() != pcBefore {
		t.Errorf("PC advanced on faulting push: %#x, want %#x", m.PC(), pcBefore)
	}

	// After recovery (guard widened, fault cleared), the retried CALL pushes
	// both bytes at the architectural addresses.
	m.ClearFault()
	m.SetGuard(lo-32, hi)
	if err := m.Step(); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if m.SP() != spBefore-2 {
		t.Errorf("retried call SP = %#x, want %#x", m.SP(), spBefore-2)
	}
	// Return address is the word after the 2-word CALL at pc 0, pushed low
	// byte first (so the low byte sits at the higher address).
	if lo8, hi8 := m.Peek(spBefore), m.Peek(spBefore-1); lo8 != 2 || hi8 != 0 {
		t.Errorf("retried call wrote return address %#x%02x, want 0x0002", hi8, lo8)
	}
}

// TestFaultingPopLeavesSPUntouched checks the matching pop-side fix: a RET
// with no frame to pop (SP at the region top) faults without moving SP.
func TestFaultingPopLeavesSPUntouched(t *testing.T) {
	m := load(t, `
main:
    ret
`)
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(hi - 1) // empty stack: pops would read hi, hi+1 — out of region
	spBefore := m.SP()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on faulting pop: %#x, want %#x", m.SP(), spBefore)
	}
}

// TestPopWordTransactionalSplit pins the half-in-range case: the first pop
// address is inside the region, the second is not; neither byte may be
// consumed.
func TestPopWordTransactionalSplit(t *testing.T) {
	m := load(t, `
main:
    ret
`)
	const lo, hi = 0x0400, 0x0500
	m.SetGuard(lo, hi)
	m.SetSP(hi - 2) // first pop at hi-1 is fine, second at hi faults
	spBefore := m.SP()

	err := m.Run(100)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultStackOverflow {
		t.Fatalf("expected stack-overflow fault, got %v", err)
	}
	if m.SP() != spBefore {
		t.Errorf("SP moved on half-faulting popWord: %#x, want %#x", m.SP(), spBefore)
	}
}

// TestInjectorStackSmash checks an injected return-address corruption is
// honoured by the subsequent RET: the hook mutates SRAM through Poke
// (harness-level, guard-exempt) and execution follows the corrupted address.
func TestInjectorStackSmash(t *testing.T) {
	m := load(t, `
main:
    ldi r16, lo8(0x04F0)
    out SPL, r16
    ldi r16, hi8(0x04F0)
    out SPH, r16
    call sub
    break
sub:
    nop
    nop
    nop
    nop
    ret
`)
	m.SetGuard(0x0400, 0x0500)
	// Corrupt the return address pushed by CALL while inside sub (the CALL
	// completes around cycle 8; the NOPs run 9..12): point it at flash word
	// 0x3F00 (empty flash decodes as a NOP sled from there on).
	m.SetInjector(10, func(m *Machine) {
		sp := m.SP()
		m.Poke(sp+1, 0x3F) // hi byte (pushWord order: lo first, hi on top)
		m.Poke(sp+2, 0x00) // lo byte
	})
	// The run ends on the cycle budget, spinning in the NOP sled.
	if err := m.Run(400); err != nil {
		t.Fatal(err)
	}
	if pc := m.PC(); pc < 0x3F00 {
		t.Errorf("corrupted return address not honoured: pc=%#x, want >= 0x3F00", pc)
	}
}

// injectLoopSrc is kernel-shaped code for the injector identity test: a hot
// ALU loop that fuses into translated blocks, a KTRAP after every inner loop
// (a fused trap terminator), and Timer0 overflow interrupts every 2048
// cycles (device events and interrupt delivery through Step). BREAK would
// decode as a KTRAP once a trap handler is installed, so the program ends
// with KTRAP 9, on which injectTrap halts. An injection that flips the inner
// counter r22 changes how long the run lasts, so a fire point that moved
// shows up in the final state.
const injectLoopSrc = `
    jmp main
.org 2
    jmp t0_isr
main:
    ldi r16, lo8(RAMEND)
    out SPL, r16
    ldi r16, hi8(RAMEND)
    out SPH, r16
    ldi r16, 1
    out TIMSK, r16    ; enable TOV0 interrupt
    ldi r16, 2        ; clk/8
    out TCCR0, r16
    sei
    ldi r25, 40
outer:
    ldi r22, 200
inner:
    add r18, r22
    adc r19, r1
    eor r20, r18
    dec r22
    brne inner
    ktrap 7
    dec r25
    brne outer
    ktrap 9           ; done: the trap handler halts
t0_isr:
    push r16
    in r16, SREG
    inc r21
    out SREG, r16
    pop r16
    reti
`

// injectTrap is injectLoopSrc's trap service: KTRAP 9 halts, any other
// returns past the two-word trap after charging 3 cycles.
func injectTrap(m *Machine, id uint16) error {
	if id == 9 {
		m.Halt("done")
		return nil
	}
	m.SetPC(m.PC() + 2)
	m.AddCycles(3)
	return nil
}

// injectFire is what one hook firing observed.
type injectFire struct {
	cycle, insts uint64
	pc           uint32
}

// injectRun is one finished run of injectLoopSrc under an execution mode.
type injectRun struct {
	m     *Machine
	fires []injectFire
	// fusedBeforeFire is the fused-dispatch count when the first hook fired.
	fusedBeforeFire uint64
}

// oneShot arms a boundary hook to call fire once, at the first instruction
// boundary at or after cycle at.
type oneShot func(m *Machine, at uint64, fire func(*Machine))

// boundaryHooks are the hooks of the machine's schedule, each armed as a
// one-shot: the injector, the checkpoint, and the sampler with an interval
// of at (armed before at, its first boundary is at), detached as it fires.
var boundaryHooks = []struct {
	name string
	arm  oneShot
}{
	{"injector", func(m *Machine, at uint64, fire func(*Machine)) { m.SetInjector(at, fire) }},
	{"checkpoint", func(m *Machine, at uint64, fire func(*Machine)) {
		m.SetCheckpoint(at, func(uint64) { fire(m) })
	}},
	{"sampler", func(m *Machine, at uint64, fire func(*Machine)) {
		m.SetSampler(at, func(uint64) {
			m.SetSampler(0, nil)
			fire(m)
		})
	}},
}

// runInjectMode runs injectLoopSrc under one execution mode (stepwise, or a
// translation threshold: 1 every landing, 0 the default) with the plan
// place installs through hook. place receives the machine, the hook and the
// firing body, which records the firing and flips r22; it returns the trap
// handler hook, called on every KTRAP service (nil for none).
func runInjectMode(t *testing.T, stepwise bool, threshold int, hook oneShot,
	place func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine)) injectRun {
	t.Helper()
	m := load(t, injectLoopSrc)
	m.SetStepwise(stepwise)
	m.SetTranslation(threshold)
	var r injectRun
	fire := func(mm *Machine) {
		if len(r.fires) == 0 {
			r.fusedBeforeFire = mm.TranslationStats().FusedDispatches
		}
		r.fires = append(r.fires, injectFire{cycle: mm.Cycles(), insts: mm.Instructions(), pc: mm.PC()})
		mm.SetReg(22, mm.Reg(22)^0x5A)
	}
	onTrap := place(m, hook, fire)
	m.SetTrapHandler(func(mm *Machine, id uint16) error {
		if onTrap != nil {
			onTrap(mm)
		}
		return injectTrap(mm, id)
	})
	err := m.Run(1_000_000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultHalt {
		t.Fatalf("expected the KTRAP 9 halt, got %v (pc=%#x)", err, m.PC())
	}
	r.m = m
	return r
}

// TestInjectorIdentityAcrossTiers requires every hook of the schedule — the
// injector, the checkpoint and the sampler — to fire at the same boundary
// (same cycle, PC and retired-instruction count) and leave the same final
// machine state whether the run steps every instruction, fuses every block
// on its first landing, or runs at the default threshold. It also pins why
// that matters for cost: with the default threshold the run dispatches
// fused blocks while a hook waits, instead of stepping until it fires.
func TestInjectorIdentityAcrossTiers(t *testing.T) {
	// The first Timer0 overflow at or after cycle 30000, read off an
	// uninjected probe: a hook due exactly where a device event is.
	probe := load(t, injectLoopSrc)
	probe.SetTrapHandler(injectTrap)
	if err := probe.Run(30_000); err != nil {
		t.Fatal(err)
	}
	deviceEvent := probe.dev.nextEvent

	cases := []struct {
		name  string
		fires int
		place func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine)
	}{
		{"hot loop", 1, func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine) {
			arm(m, 20_011, fire)
			return nil
		}},
		{"device event", 1, func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine) {
			arm(m, deviceEvent, fire)
			return nil
		}},
		{"re-arm chain", 3, func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine) {
			links := 0
			var link func(*Machine)
			link = func(mm *Machine) {
				fire(mm)
				if links++; links < 3 {
					arm(mm, mm.Cycles()+777*uint64(links), link)
				}
			}
			arm(m, 15_000, link)
			return nil
		}},
		{"armed by a trap service", 1, func(m *Machine, arm oneShot, fire func(*Machine)) func(*Machine) {
			traps := 0
			return func(mm *Machine) {
				if traps++; traps == 20 {
					arm(mm, mm.Cycles()+41, fire)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, hook := range boundaryHooks {
				t.Run(hook.name, func(t *testing.T) {
					slow := runInjectMode(t, true, 0, hook.arm, tc.place)
					if len(slow.fires) != tc.fires {
						t.Fatalf("stepwise run fired %d times, want %d", len(slow.fires), tc.fires)
					}
					for _, mode := range []struct {
						name      string
						threshold int
					}{{"threshold 1", 1}, {"default threshold", 0}} {
						got := runInjectMode(t, false, mode.threshold, hook.arm, tc.place)
						if !slices.Equal(got.fires, slow.fires) {
							t.Errorf("%s: fired at %+v, stepwise at %+v", mode.name, got.fires, slow.fires)
						}
						requireSameState(t, mode.name, got.m, slow.m)
						// The default mode keeps the fused tier while the
						// hook is armed: blocks ran before the first firing.
						if mode.threshold == 0 && got.fusedBeforeFire == 0 {
							t.Errorf("default mode dispatched no fused block before the first firing: %+v",
								got.m.TranslationStats())
						}
					}
				})
			}
		})
	}
}
