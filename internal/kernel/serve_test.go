package kernel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// TestTrapDescSize pins the per-trap table cost: forks rebuild the table on
// every restore, so a descriptor may not outgrow the 40-byte record it
// replaced.
func TestTrapDescSize(t *testing.T) {
	if n := unsafe.Sizeof(mcu.TrapDesc{}); n > 40 {
		t.Fatalf("mcu.TrapDesc is %d bytes, want at most 40", n)
	}
}

// tierRun is everything a run leaves that the in-block service could move.
type tierRun struct {
	cycles, insts uint64
	pc            uint32
	regs          [32]byte
	metrics       string
	faults        []FaultRecord
	tasks         []string
	stats         Stats
	// Kernel services booked, those served in-block, and those booked by
	// the poll-loop repeater.
	traps, served, repeated uint64
}

// runTier boots one task per source under cfg, on the stepwise reference or
// on the fused tier at translation threshold 1, and runs it for up to 10 M
// cycles.
func runTier(t *testing.T, cfg Config, nats []*rewriter.Naturalized, stepwise bool) tierRun {
	t.Helper()
	m := mcu.New()
	m.SetStepwise(stepwise)
	m.SetTranslation(1)
	k := New(m, cfg)
	var repeated uint64
	m.SetTrapHandler(k.handleTrap, func(m *mcu.Machine, id uint16, n uint64) uint64 {
		n = k.repeatTrap(m, id, n)
		repeated += n
		return n
	})
	for i, nat := range nats {
		if _, err := k.AddTask(nat.Program.Name+suffix(i), nat); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	r := tierRun{cycles: m.Cycles(), insts: m.Instructions(), pc: m.PC(),
		metrics: k.Metrics().Render(), faults: k.FaultLog, stats: k.Stats,
		served: m.TranslationStats().InBlockTraps, repeated: repeated}
	for i := range r.regs {
		r.regs[i] = m.Reg(uint8(i))
	}
	for _, task := range k.Tasks {
		r.tasks = append(r.tasks, fmt.Sprintf("%s %v %q calls %v kernel %d run %d switches %d relocs %d max stack %d countdown %d",
			task.Name, task.state, task.ExitReason, task.ServiceCalls, task.KernelCycles, task.RunCycles(),
			task.Switches, task.Relocations, task.MaxStackUsed, task.branchLeft))
	}
	for _, n := range k.Stats.ServiceCalls {
		r.traps += n
	}
	return r
}

// TestLoadRefusesLongGroup: a descriptor holds at most rewriter.MaxGroup
// accesses, so admission refuses a hand-built image with a longer group.
func TestLoadRefusesLongGroup(t *testing.T) {
	nat := naturalize(t, "group", `
.data
buf: .space 8
.text
main:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    st X+, r16
    break
`)
	long := *nat
	long.Patches = nil
	for _, p := range nat.Patches {
		q := *p
		if q.Class == rewriter.ClassIndirectMem {
			q.Group = q.Group[:1:1] // appends copy: nat keeps its group
			for len(q.Group) <= rewriter.MaxGroup {
				q.Group = append(q.Group, q.Group[0])
			}
		}
		long.Patches = append(long.Patches, &q)
	}
	k := New(mcu.New(), Config{})
	if _, err := k.AddTask("long", &long); err == nil || !strings.Contains(err.Error(), "group of 5") {
		t.Fatalf("AddTask = %v, want a refused group of 5", err)
	}
	if _, err := k.AddTask("group", nat); err != nil {
		t.Fatalf("the unedited image: %v", err)
	}
}

// TestInBlockServiceDeclines holds the fused tier's in-block trap service to
// the stepwise kernel on every path where it must decline: each row runs
// stepwise and on the fused tier at threshold 1 (every trap reached in a
// block), the two runs must leave identical clocks, registers, metrics,
// fault logs and ledgers, and the traps the fused run left to the kernel
// must be exactly the ones the row makes need it. Poll-loop repeats enter
// neither side: the repeater books them.
func TestInBlockServiceDeclines(t *testing.T) {
	const groupSrc = `
.data
buf: .space 4
.text
main:
    ldi r16, 3
loop:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    st X+, r16
    st X+, r16
    dec r16
    brne loop
    ldi r26, lo8(buf+3)
    ldi r27, hi8(buf+3)
    st X+, r16        ; the heap's last byte
    st X+, r16        ; one past the heap: the task faults here
    break
`
	const ioSrc = `
.data
out: .space 2
.text
main:
    ldi r17, 3
loop:
    ldi r30, PORTB+0x20
    clr r31
    ld r16, Z         ; an I/O register
    sts out, r16
    ldi r30, TCNT3L
    ld r18, Z+        ; the kernel's clock, virtualized
    ld r19, Z
    dec r17
    brne loop
    break
`
	const countSrc = `
.data
acc: .space 1
.text
main:
    clr r20
    ldi r16, 60
loop:
    add r20, r16
    dec r16
    brne loop
    sts acc, r20
    break
`
	const ownPtrSrc = `
.data
buf: .space 4
.text
main:
    ldi r17, 3
loop:
    ldi r26, lo8(buf)
    ldi r27, hi8(buf)
    st X+, r17
    st X, r17
    ldi r26, lo8(buf)
    ld r16, X+
    ld r26, X         ; loads the shared pointer: ends the group
    dec r17
    brne loop
    break
`
	// The wait's conditional backward branch is taken on a flag set in an
	// earlier block of the same chain, which no kernel entry has flushed:
	// the repeater must price the fast-forwarded iterations from it.
	const pollSrc = `
main:
    ldi r20, 8
next:
    out RDR, r20
    ldi r17, 1
    dec r17           ; Z set
txw:
    in r16, RSR
    sbrs r16, 0
    breq txw          ; taken while the radio is busy
    dec r20
    brne next
    break
`
	recurse := naturalize(t, "recurse", recurseSrc)
	count := naturalize(t, "count", countSrc)
	// hijack returns into count's first trap, another program's code.
	hijack := func(t *testing.T) *rewriter.Naturalized {
		target := 16 + count.Patches[0].NatPC // count loads first, at word 16
		return naturalize(t, "hijack", fmt.Sprintf(`
main:
    ldi r17, 3
loop:
    dec r17
    brne loop
    ldi r16, %d
    push r16
    ldi r16, %d
    push r16
    ret
`, target&0xFF, target>>8))
	}
	rows := []struct {
		name string
		cfg  Config
		nats func(t *testing.T) []*rewriter.Naturalized
		// declined is how many booked services the fused run must leave
		// to the kernel, given the reference run's kernel stats.
		declined func(st Stats) uint64
		want     string // a task's exit reason must contain this
		repeats  bool   // the fused run must fast-forward a trap-closed poll loop
	}{
		{name: "group leaves the heap at its second access",
			nats: func(t *testing.T) []*rewriter.Naturalized {
				return []*rewriter.Naturalized{naturalize(t, "group", groupSrc)}
			},
			declined: func(Stats) uint64 { return 1 }, want: "invalid logical address"},
		{name: "indirect reads of an I/O register and of TCNT3",
			nats: func(t *testing.T) []*rewriter.Naturalized {
				return []*rewriter.Naturalized{naturalize(t, "io", ioSrc)}
			},
			// Per iteration the I/O read and the TCNT3 group; then the exit.
			declined: func(Stats) uint64 { return 3*2 + 1 }, want: "exited"},
		{name: "call that relocates",
			nats: func(*testing.T) []*rewriter.Naturalized { return []*rewriter.Naturalized{recurse} },
			// Every relocation happens at a call; then the exit.
			declined: func(st Stats) uint64 { return uint64(st.Relocations) + 1 }, want: "exited"},
		{name: "call with no donor", cfg: Config{AppLimit: 66},
			nats:     func(*testing.T) []*rewriter.Naturalized { return []*rewriter.Naturalized{recurse} },
			declined: func(Stats) uint64 { return 1 }, want: "no donor"},
		{name: "countdown expiring every fourth branch", cfg: Config{BranchInterval: 4, SliceCycles: 300},
			nats: func(*testing.T) []*rewriter.Naturalized { return []*rewriter.Naturalized{count, count} },
			// Every slice check, then both exits.
			declined: func(st Stats) uint64 { return st.SliceChecks + 2 }, want: "exited"},
		{name: "computed jump into another program",
			nats: func(t *testing.T) []*rewriter.Naturalized {
				return []*rewriter.Naturalized{count, hijack(t)}
			},
			// count's exit. The foreign trap books no service: that the
			// kernel saw it shows in the hijacker's exit reason.
			declined: func(Stats) uint64 { return 1 }, want: "foreign program"},
		{name: "group whose last access loads its pointer",
			nats: func(t *testing.T) []*rewriter.Naturalized {
				return []*rewriter.Naturalized{naturalize(t, "ownptr", ownPtrSrc)}
			},
			declined: func(Stats) uint64 { return 1 }, want: "exited"},
		{name: "poll loop on a flag of an earlier block",
			nats: func(t *testing.T) []*rewriter.Naturalized {
				return []*rewriter.Naturalized{naturalize(t, "poll", pollSrc)}
			},
			// Every slice check, then the exit.
			declined: func(st Stats) uint64 { return st.SliceChecks + 1 }, want: "exited", repeats: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			nats := row.nats(t)
			ref := runTier(t, row.cfg, nats, true)
			got := runTier(t, row.cfg, nats, false)
			if ref.served != 0 {
				t.Fatalf("the stepwise run served %d traps in-block", ref.served)
			}
			if ref.repeated != 0 {
				t.Fatalf("the stepwise run repeated %d traps", ref.repeated)
			}
			if row.repeats && got.repeated == 0 {
				t.Error("the fused run fast-forwarded no poll iteration")
			}
			left := got.traps - got.served - got.repeated
			if want := row.declined(ref.stats); left != want || got.served == 0 {
				t.Errorf("fused run left %d of %d traps to the kernel, want %d (and some served in-block)",
					left, got.traps, want)
			}
			if !strings.Contains(strings.Join(ref.tasks, "\n"), row.want) {
				t.Errorf("no task exit reason contains %q:\n%s", row.want, strings.Join(ref.tasks, "\n"))
			}
			ref.served, got.served, got.repeated = 0, 0, 0
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("fused run differs from the stepwise run:\nfused    %+v\nstepwise %+v", got, ref)
			}
		})
	}
}
