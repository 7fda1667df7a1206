// Package trace is the cycle-stamped event subsystem of the SenSmart
// reproduction. The MCU simulator and the kernel emit typed events into a
// Recorder — interrupts, KTRAP entry/exit per service, context switches,
// stack relocations, memory faults, task lifecycle — each stamped with the
// simulated cycle counter, so every timeline claim of the paper (10 ms
// slices, 1-in-256 branch traps, Table II service costs) can be asserted
// against the recorded stream instead of eyeballed from log lines.
//
// The recorder is attached through a nil-checked pointer: with no recorder
// the emitting code performs a single pointer comparison and allocates
// nothing, so tracing costs nothing when disabled. Events are plain values;
// recording allocates only the backing slice.
//
// On top of the raw stream the package provides a Chrome trace_event JSON
// exporter (chrome.go; load the file in chrome://tracing or Perfetto) and
// the Metrics snapshot types the kernel aggregates into (metrics.go).
package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Kind classifies a trace event.
type Kind uint8

// Event kinds. The Arg/Arg2 columns are kind-specific; Task is the task id
// the event concerns, or -1 for machine- or kernel-global events.
const (
	// KindBoot marks kernel boot; Arg is the system-initialization cycle
	// cost charged (Table II).
	KindBoot Kind = iota + 1
	// KindProgLoad records a naturalized program placed in flash; Arg is
	// the flash base word address, Arg2 the image size in words, Detail the
	// program name.
	KindProgLoad
	// KindTaskSpawn records task admission; Arg is the region base address,
	// Arg2 the region size in bytes, Detail the task name.
	KindTaskSpawn
	// KindTaskExit records task termination; Arg is the stack high-water
	// mark, Detail the exit reason.
	KindTaskExit
	// KindSwitch records a context switch (stamped after the switch cost is
	// charged); Task is the task switched in, Arg the previous task id + 1
	// (0 = none), Arg2 the cycles charged for the switch.
	KindSwitch
	// KindPreempt records a time-slice preemption decision for Task.
	KindPreempt
	// KindSliceCheck records a branch-interval counter expiry: one out of
	// BranchInterval backward branches reaches the scheduler check.
	KindSliceCheck
	// KindTrapEnter records KTRAP service entry; Arg is the service class,
	// Arg2 is 1 for a backward branch (preemption-counted), else 0.
	KindTrapEnter
	// KindTrapExit records KTRAP service exit; Arg is the service class,
	// Arg2 the cycles the service charged (the clock delta to the matching
	// KindTrapEnter decomposes into this plus any relocation / switch /
	// idle events recorded in between).
	KindTrapExit
	// KindReloc records a stack relocation growing Task's stack; Arg is the
	// bytes granted, Arg2 the cycles charged (fixed cost plus copies).
	KindReloc
	// KindRelease records region compaction after a task exit; Arg is the
	// region bytes freed, Arg2 the compaction cycles charged.
	KindRelease
	// KindMemFault records a memory-isolation violation; Arg is the
	// offending address.
	KindMemFault
	// KindSleep records a task entering the sleep state; Arg is the wake
	// cycle.
	KindSleep
	// KindWake records a sleeping task becoming ready again.
	KindWake
	// KindIdle records the CPU idling (no runnable task); Arg is the idle
	// cycles advanced, and the stamp is the cycle after the advance.
	KindIdle
	// KindInterrupt records hardware interrupt delivery; Arg is the vector
	// word address.
	KindInterrupt
	// KindHalt records the machine halting; Detail is the halt note.
	KindHalt
	// KindBudget records an execution budget expiring: Run returned because
	// the instruction/cycle budget (Arg) was exhausted, not because the
	// workload finished.
	KindBudget
	// KindWatch records a watchpoint hit: a watched logical data address was
	// touched. Arg is the logical address, Arg2 is 1 for a write and 0 for a
	// read, PC is the instruction site, and Detail carries the symbolized
	// site when a symbolizer is attached.
	KindWatch
	// KindPower records a device power-state transition observed by the
	// energy meter: Arg is the device (see the Power* constants), Arg2 is 1
	// when the device becomes busy and 0 when it goes idle. Emitted only
	// when a recorder AND an energy meter are both attached, so untraced and
	// unmetered runs keep byte-identical streams.
	KindPower
)

// Power* identify the device of a KindPower event (its Arg field).
const (
	PowerRadio uint64 = iota + 1
	PowerUART
	PowerADC
	PowerTimer
)

// powerDevice renders a KindPower Arg.
func powerDevice(arg uint64) string {
	switch arg {
	case PowerRadio:
		return "radio"
	case PowerUART:
		return "uart"
	case PowerADC:
		return "adc"
	case PowerTimer:
		return "timer"
	}
	return fmt.Sprintf("device(%d)", arg)
}

func (k Kind) String() string {
	switch k {
	case KindBoot:
		return "boot"
	case KindProgLoad:
		return "prog-load"
	case KindTaskSpawn:
		return "task-spawn"
	case KindTaskExit:
		return "task-exit"
	case KindSwitch:
		return "switch"
	case KindPreempt:
		return "preempt"
	case KindSliceCheck:
		return "slice-check"
	case KindTrapEnter:
		return "trap-enter"
	case KindTrapExit:
		return "trap-exit"
	case KindReloc:
		return "reloc"
	case KindRelease:
		return "release"
	case KindMemFault:
		return "mem-fault"
	case KindSleep:
		return "sleep"
	case KindWake:
		return "wake"
	case KindIdle:
		return "idle"
	case KindInterrupt:
		return "interrupt"
	case KindHalt:
		return "halt"
	case KindBudget:
		return "budget"
	case KindWatch:
		return "watch"
	case KindPower:
		return "power"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one cycle-stamped occurrence on the simulated timeline.
type Event struct {
	// Cycle is the simulated cycle counter at the stamp point.
	Cycle uint64
	// Kind classifies the event; see the Kind constants for the meaning of
	// the remaining fields per kind.
	Kind Kind
	// Task is the task id the event concerns, or -1.
	Task int32
	// Arg and Arg2 are kind-specific payloads.
	Arg, Arg2 uint64
	// PC is the flash word address of the instruction the event concerns
	// (trap enter, memory fault, watchpoint hit), or 0 when not applicable.
	// A symbolizer (internal/profile) maps it back to a function name.
	PC uint32
	// Detail is a kind-specific human string (task name, exit reason, halt
	// note). Only lifecycle events carry one, so the hot kinds stay
	// allocation-free.
	Detail string
}

// Format renders the event as one human-readable line. name resolves a task
// id to its display name; pass nil to print raw ids.
func (e Event) Format(name func(int32) string) string {
	who := ""
	if e.Task >= 0 {
		if name != nil {
			who = name(e.Task)
		} else {
			who = fmt.Sprintf("task%d", e.Task)
		}
	}
	switch e.Kind {
	case KindBoot:
		return fmt.Sprintf("[%d] boot (%d init cycles)", e.Cycle, e.Arg)
	case KindProgLoad:
		return fmt.Sprintf("[%d] loaded %s at %#x (%d words)", e.Cycle, e.Detail, e.Arg, e.Arg2)
	case KindTaskSpawn:
		return fmt.Sprintf("[%d] admitted task %s: region [%#x,%#x)", e.Cycle, e.Detail, e.Arg, e.Arg+e.Arg2)
	case KindTaskExit:
		return fmt.Sprintf("[%d] task %s terminated: %s (stack peak %dB)", e.Cycle, who, e.Detail, e.Arg)
	case KindSwitch:
		from := "idle"
		if e.Arg > 0 {
			if name != nil {
				from = name(int32(e.Arg - 1))
			} else {
				from = fmt.Sprintf("task%d", e.Arg-1)
			}
		}
		return fmt.Sprintf("[%d] switch %s -> %s (%d cycles)", e.Cycle, from, who, e.Arg2)
	case KindPreempt:
		return fmt.Sprintf("[%d] preempt %s", e.Cycle, who)
	case KindSliceCheck:
		return fmt.Sprintf("[%d] slice check %s", e.Cycle, who)
	case KindTrapEnter:
		return fmt.Sprintf("[%d] ktrap enter %s class=%d", e.Cycle, who, e.Arg)
	case KindTrapExit:
		return fmt.Sprintf("[%d] ktrap exit %s class=%d charged=%d", e.Cycle, who, e.Arg, e.Arg2)
	case KindReloc:
		s := fmt.Sprintf("[%d] reloc %s +%d bytes (%d cycles)", e.Cycle, who, e.Arg, e.Arg2)
		if e.Detail != "" {
			s += " " + e.Detail
		}
		return s
	case KindRelease:
		return fmt.Sprintf("[%d] release %s region %dB (%d compaction cycles)", e.Cycle, who, e.Arg, e.Arg2)
	case KindMemFault:
		s := fmt.Sprintf("[%d] memory fault %s addr=%#x pc=%#x", e.Cycle, who, e.Arg, e.PC)
		if e.Detail != "" {
			s += " in " + e.Detail
		}
		return s
	case KindSleep:
		return fmt.Sprintf("[%d] sleep %s until %d", e.Cycle, who, e.Arg)
	case KindWake:
		return fmt.Sprintf("[%d] wake %s", e.Cycle, who)
	case KindIdle:
		return fmt.Sprintf("[%d] idle %d cycles", e.Cycle, e.Arg)
	case KindInterrupt:
		return fmt.Sprintf("[%d] interrupt vector %#x", e.Cycle, e.Arg)
	case KindHalt:
		return fmt.Sprintf("[%d] halt: %s", e.Cycle, e.Detail)
	case KindBudget:
		return fmt.Sprintf("[%d] budget %d exhausted", e.Cycle, e.Arg)
	case KindWatch:
		rw := "read"
		if e.Arg2 != 0 {
			rw = "write"
		}
		s := fmt.Sprintf("[%d] watch %s %s addr=%#x pc=%#x", e.Cycle, who, rw, e.Arg, e.PC)
		if e.Detail != "" {
			s += " in " + e.Detail
		}
		return s
	case KindPower:
		state := "idle"
		if e.Arg2 != 0 {
			state = "busy"
		}
		return fmt.Sprintf("[%d] power %s -> %s", e.Cycle, powerDevice(e.Arg), state)
	}
	return fmt.Sprintf("[%d] %s task=%d arg=%d arg2=%d %s", e.Cycle, e.Kind, e.Task, e.Arg, e.Arg2, e.Detail)
}

// Recorder collects events in emission order. The zero value records with
// no bound; New returns one ready to use. A nil *Recorder is the disabled
// state: emitters must nil-check before calling Emit (the kernel and MCU
// do), which keeps the hot path to one pointer comparison.
type Recorder struct {
	// Limit caps retained events (0 = unbounded); set it before the first
	// Emit. Once Limit events are held the recorder is a ring: each further
	// event overwrites the oldest and is counted in Dropped, so a runaway
	// trace keeps its most recent tail instead of exhausting memory, and a
	// caller that wants only the last N events pays for N.
	Limit int

	events  []Event
	head    int // index of the oldest event once the ring has wrapped
	dropped uint64
}

// New returns an empty unbounded recorder.
func New() *Recorder { return &Recorder{} }

// NewLimited returns a recorder retaining the newest limit events.
func NewLimited(limit int) *Recorder { return &Recorder{Limit: limit} }

// Emit records one event; into a full ring it overwrites the oldest one
// without allocating.
func (r *Recorder) Emit(ev Event) {
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.events[r.head] = ev
		if r.head++; r.head == len(r.events) {
			r.head = 0
		}
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Events returns the retained stream in emission order. Until a ring wraps
// the slice is the recorder's backing store, which callers must not mutate;
// a wrapped ring returns a fresh copy.
func (r *Recorder) Events() []Event {
	if r.head == 0 {
		return r.events
	}
	return r.ordered()
}

// ordered copies the retained events out in emission order.
func (r *Recorder) ordered() []Event {
	return slices.Concat(r.events[r.head:], r.events[:r.head])
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return len(r.events) }

// Dropped returns how many of the oldest events the Limit discarded.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Reset discards all recorded events (the Limit is kept).
func (r *Recorder) Reset() { r.events, r.head, r.dropped = r.events[:0], 0, 0 }

// Encode renders the stream as a canonical text dump, one event per line —
// the byte-identical form the determinism tests compare.
func (r *Recorder) Encode() []byte {
	var b bytes.Buffer
	r.WriteTo(&b)
	return b.Bytes()
}

// WriteTo streams the Encode form to w a chunk at a time, so digesting or
// copying a long stream never holds all of it.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	var n int64
	buf := make([]byte, 0, 64<<10)
	flush := func() error {
		k, err := w.Write(buf)
		n += int64(k)
		buf = buf[:0]
		return err
	}
	for _, e := range r.Events() {
		// Appended field by field: the bytes of the Fprintf format
		// "%d %d %d %d %d %d %q\n" at a fraction of the cost.
		buf = strconv.AppendUint(buf, e.Cycle, 10)
		buf = strconv.AppendUint(append(buf, ' '), uint64(e.Kind), 10)
		buf = strconv.AppendInt(append(buf, ' '), int64(e.Task), 10)
		buf = strconv.AppendUint(append(buf, ' '), e.Arg, 10)
		buf = strconv.AppendUint(append(buf, ' '), e.Arg2, 10)
		buf = strconv.AppendUint(append(buf, ' '), uint64(e.PC), 10)
		buf = append(strconv.AppendQuote(append(buf, ' '), e.Detail), '\n')
		if len(buf) >= 60<<10 {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	return n, flush()
}

// TaskNames derives the id-to-name table from the spawn events in the
// stream — the exporter and Logf adapter use it so no side-channel name
// registry is needed.
func TaskNames(events []Event) map[int32]string {
	names := make(map[int32]string)
	for _, e := range events {
		if e.Kind == KindTaskSpawn && e.Task >= 0 {
			names[e.Task] = e.Detail
		}
	}
	return names
}
