// Package mcu simulates an ATmega128L-class microcontroller — the MICA2
// mote's CPU — with cycle accounting faithful to the data sheet. It executes
// the AVR subset defined in internal/avr, models the mote devices the
// SenSmart evaluation needs (Timer0, the kernel-reserved Timer3, ADC, UART,
// a byte-timed radio), and exposes the hooks the SenSmart kernel runtime
// attaches to: a KTRAP handler and a per-task memory guard.
package mcu

import (
	"fmt"
	"sync/atomic"

	"repro/internal/avr"
	"repro/internal/energy"
	"repro/internal/trace"
)

// Memory geometry and clock rate of the simulated MICA2 node.
const (
	// FlashWords is the program memory size in 16-bit words (128 KB).
	FlashWords = 1 << 16
	// DataSize is the data address space: 32 registers + 224 I/O bytes +
	// 4 KB SRAM, addresses 0x0000..0x10FF.
	DataSize = 0x1100
	// SRAMBase is the first general-purpose SRAM address.
	SRAMBase = 0x0100
	// IOBase is the data-space address of I/O register 0.
	IOBase = 0x20
	// ClockHz is the MICA2 CPU clock (7.3728 MHz).
	ClockHz = 7372800
)

// Per-machine program state — flash, the micro-op cache, and the block
// translator's leader index — is held in page tables over pageWords-word
// granules (twice the ATmega128's 128-word SPM page).
// An absent page is the table's shared erased page: all zero, which reads as
// erased flash (zero words decode as NOP), as unbuilt micro-ops, or as cold
// leaders, with no nil test on the fetch path. A machine gets a page of its
// own on the first write to it, so a naturalized image of a few hundred
// words costs a handful of pages. Translated blocks never span a page
// boundary, which keeps invalidation local and bounds block discovery walks.
const (
	pageShift = 8
	pageWords = 1 << pageShift
	numPages  = FlashWords / pageWords
)

// pageOf returns the page-table index of flash word address pc (masked, so
// runaway PCs wrap exactly as the flat address space does); the word's offset
// within its page is pc % pageWords.
func pageOf(pc uint32) uint32 { return pc >> pageShift & (numPages - 1) }

// page is one pageWords-entry granule of a page table. shared marks a page
// reachable from more than one machine (AdoptImage), frozen into a flash
// image (flashImage), or an erased page: it is never written again, and a
// writer copies it first. The flag is only ever set, and is atomic because
// many children may adopt one quiescent parent concurrently.
type page[T any] struct {
	v      [pageWords]T
	shared atomic.Bool
}

// ownPage returns page i of tab ready for writing, replacing a shared (or
// erased) page by a private copy first.
func ownPage[T any](tab *[numPages]*page[T], i uint32) *page[T] {
	p := tab[i]
	if p.shared.Load() {
		p = &page[T]{v: p.v}
		tab[i] = p
	}
	return p
}

// sharePage marks p as shared and returns it. A page already shared (the
// erased pages always are) is only read, so adopters never contend on it.
func sharePage[T any](p *page[T]) *page[T] {
	if !p.shared.Load() {
		p.shared.Store(true)
	}
	return p
}

// erasedTable returns a page table whose every page is the erased page e.
func erasedTable[T any](e *page[T]) (t [numPages]*page[T]) {
	for i := range t {
		t[i] = e
	}
	return t
}

// The erased pages and all-absent tables of the three page tables.
var (
	erasedFlash = sharePage(new(page[uint16]))
	erasedUops  = sharePage(new(page[uop]))
	erasedIdx   = sharePage(new(page[int32]))

	erasedFlashTable = erasedTable(erasedFlash)
	erasedUopTable   = erasedTable(erasedUops)
	erasedIdxTable   = erasedTable(erasedIdx)
)

// Data-space addresses of the core registers.
const (
	addrSPL  = 0x5D
	addrSPH  = 0x5E
	addrSREG = 0x5F
)

// Interrupt vector word addresses (our simulated part's layout; 2 words per
// vector so a JMP fits).
const (
	VecReset    = 0
	VecTimer0   = 2
	VecADC      = 4
	VecUART     = 6
	VecRadioRx  = 8
	VecTableEnd = 10
)

// Interrupt source bits for the pending mask.
const (
	intTimer0 = 1 << iota
	intADC
	intUART
	intRadioRx
)

// TrapHandler is invoked when execution reaches a KTRAP instruction. The
// handler owns the machine during the call: it must set the next PC and
// charge any kernel cycles. Returning an error halts the machine.
type TrapHandler func(m *Machine, id uint16) error

// TrapRepeater books repeats of a trap the handler has just serviced. The
// fused tier calls it when a device-poll loop (see translate.go) closed by
// trap id has looped back to its leader: it asks for up to n further
// services, each identical to the one just run, and the repeater returns
// how many it accepts (at most n), having booked their effect on its own
// ledgers. The machine charges the clock and the instruction count for the
// accepted repeats; the services themselves never run. A repeater must
// decline (return 0) whatever it cannot repeat exactly — a service with
// side effects beyond its ledgers, or one that emits per-trap events.
type TrapRepeater func(m *Machine, id uint16, n uint64) uint64

// Machine is one simulated node. The zero value is not usable; call New.
type Machine struct {
	data  [DataSize]byte
	pc    uint32
	cycle uint64
	idle  uint64 // cycles spent sleeping, for CPU-utilization accounting

	sleeping bool
	fault    *Fault
	pending  uint8  // pending interrupt sources
	insts    uint64 // instructions executed since reset (host-MIPS metric)

	// stepwise forces Run/RunUntil onto the fully-checked per-instruction
	// Step path, disabling the fused tier (bench comparator).
	stepwise bool

	trap   TrapHandler
	repeat TrapRepeater

	// traps and task are the kernel's published trap descriptors and the
	// running task's counter block (service.go); a nil task leaves every
	// trap to the handler.
	traps []TrapDesc
	task  *TaskBlock

	// rec, when non-nil, receives cycle-stamped machine events (interrupt
	// delivery, idle advances, halts, budget expiry). The nil state is the
	// disabled state: every emission site is a single pointer comparison.
	// No event is per-instruction, so a recorder runs on every tier.
	rec *trace.Recorder

	// Profiler hooks (internal/profile), nil-disabled like rec: with no
	// profiler attached every site is one pointer comparison. profInstr
	// receives each executed instruction's fetch PC, the post-execution SP,
	// and the cycle delta; profIdle and profIntr receive idle advances and
	// interrupt-delivery charges.
	profInstr func(pc uint32, sp uint16, cycles uint64)
	profIdle  func(n uint64)
	profIntr  func(n uint64)

	// The hook schedule. Three hooks fire at the first instruction boundary
	// at or after a cycle: the telemetry sampler (at each multiple of
	// sampleEvery, the next one sampleNext), the checkpoint (once, at
	// ckptAt) and the fault injector (once, at injectAt). Each is
	// nil-disabled. due is the earliest cycle an armed hook waits for
	// (noEvent when none is armed), kept by schedule on every arm, disarm
	// and fire, so the run loop tests all three with one compare and the
	// fused tier takes due as a cycle bound. The sampler and the checkpoint
	// fire in RunUntil's loop, before Step; the injector fires in Step,
	// after device sync and before interrupt delivery. Callbacks may re-arm
	// their own hook.
	due         uint64
	sampleFn    func(at uint64)
	sampleEvery uint64
	sampleNext  uint64
	ckptFn      func(at uint64)
	ckptAt      uint64
	injectFn    func(*Machine)
	injectAt    uint64

	// memWatch, when non-nil, observes successful native SRAM accesses
	// (loads, stores, pushes, pops) with the physical address; the kernel's
	// watchpoint adapter translates to logical addresses. Kernel-mediated
	// accesses (ReadBus/WriteBus) are reported by the kernel itself.
	memWatch func(pc uint32, addr uint16, write bool)

	// Native-access memory guard (the kernel's isolation backstop for
	// unpatched SP-relative accesses). Zero values disable it.
	guardLo, guardHi uint16
	guardOn          bool

	dev devices

	codeEnd uint32 // highest loaded word + 1, for diagnostics

	// xl is the basic-block superinstruction translator (translate.go):
	// straight-line runs between control transfers execute as fused blocks
	// with one horizon check per block. The block cache is derived state,
	// invalidated on the same paths as the micro-op cache.
	xl *translator

	// meter, when non-nil, is the energy charge ledger (internal/energy).
	// Nil-disabled like rec and the profiler hooks, and fed only at device
	// power-state transitions (writeIO span starts, prescaler changes,
	// sleep advances) — never on the per-instruction path — so an attached
	// meter adds no work to the fused tier and a detached one costs one
	// pointer comparison per transition.
	meter *energy.Meter

	// erasedUop is the micro-op of the last erased-flash word fetched; see
	// fetchUop.
	erasedUop uop

	// The program image. Its 4 KB of page tables sit last, so they do not
	// spread the per-instruction fields above over more cache lines. flash
	// is program memory, paged so machines restored from a snapshot can
	// share the parent's immutable image page by page (AdoptImage). img is
	// the frozen image flash holds (see flashImage), nil from a LoadFlash
	// until the next capture or adoption freezes one. It is atomic because
	// concurrent adopters of a machine without one race to freeze it.
	flash [numPages]*page[uint16]
	img   atomic.Pointer[flashImage]

	// Micro-op cache: code is immutable while running (the paper's
	// no-self-modification assumption), so each flash word predecodes once
	// into an executable uop (see dispatch.go). An entry whose in.Op is
	// OpInvalid (the zero value) has not been built or was invalidated —
	// the validity check rides on the same cache line as the entry itself.
	// Pages are shared with adopting machines like flash pages, and the
	// pointer-free uop keeps them out of garbage-collector scans.
	uops [numPages]*page[uop]
}

// New returns a reset machine with empty (erased) flash.
func New() *Machine {
	m := &Machine{
		flash: erasedFlashTable,
		uops:  erasedUopTable,
		xl:    newTranslator(DefaultTranslationThreshold),
	}
	m.Reset()
	return m
}

// AdoptImage replaces m's program image with parent's: m shares parent's
// flash image (freezing it first when parent has none), its predecoded
// micro-op pages and its translated blocks copy-on-write. Both machines
// keep executing from the same pages and blocks until one of them writes
// (LoadFlash, a cache fill, a new block), at which point the writer copies
// the page or the block list alone. The parent must be quiescent (not
// inside Run/Step), but many children may adopt the same parent from
// different goroutines: adoption only reads the parent, marks its pages
// and blocks shared, and freezes its image race-free. A state captured
// from parent therefore restores into m by image identity.
func (m *Machine) AdoptImage(parent *Machine) {
	im := parent.image()
	m.flash = im.flash
	m.img.Store(im)
	for i := range parent.uops {
		m.uops[i] = sharePage(parent.uops[i])
	}
	m.codeEnd = parent.codeEnd
	m.xl.adopt(parent.xl)
}

// SetCheckpoint arms (or, with nil fn, disarms) the checkpoint hook: fn runs
// once, with the nominal arming cycle, at the first instruction boundary
// whose clock has reached at, exactly where a stepwise run would reach it
// (the hook bounds the fused tier like any due hook). The hook disarms
// itself before firing, so fn may call SetCheckpoint again to chain a later
// checkpoint. Arming it never changes the simulated trajectory.
func (m *Machine) SetCheckpoint(at uint64, fn func(at uint64)) {
	m.ckptFn = fn
	m.ckptAt = at
	if fn == nil {
		m.ckptAt = 0
	}
	m.schedule()
}

// schedule recomputes due from the armed hooks.
func (m *Machine) schedule() {
	due := noEvent
	if m.sampleFn != nil {
		due = m.sampleNext
	}
	if m.ckptFn != nil {
		due = min(due, m.ckptAt)
	}
	if m.injectFn != nil {
		due = min(due, m.injectAt)
	}
	m.due = due
}

// fireDue fires the sampler and the checkpoint when their cycles have come.
// A due injector is left to Step, which fires it after device sync.
func (m *Machine) fireDue() {
	if m.sampleFn != nil && m.cycle >= m.sampleNext {
		m.fireSample()
	}
	if m.ckptFn != nil && m.cycle >= m.ckptAt {
		fn, at := m.ckptFn, m.ckptAt
		m.SetCheckpoint(0, nil)
		fn(at)
	}
}

// Reset clears CPU and device state but leaves flash contents alone.
func (m *Machine) Reset() {
	m.data = [DataSize]byte{}
	m.pc = 0
	m.cycle = 0
	m.idle = 0
	m.insts = 0
	m.sleeping = false
	m.fault = nil
	m.pending = 0
	m.guardOn = false
	m.dev.reset()
	m.SetSP(DataSize - 1)
	m.SetInjector(0, nil)
}

// LoadFlash copies words into program memory starting at word address base.
func (m *Machine) LoadFlash(base uint32, words []uint16) error {
	if int(base)+len(words) > FlashWords {
		return fmt.Errorf("mcu: flash overflow: base %#x + %d words", base, len(words))
	}
	end := base + uint32(len(words))
	for pc := base; pc < end; {
		off := pc % pageWords
		n := min(pageWords-off, end-pc)
		copy(ownPage(&m.flash, pageOf(pc)).v[off:off+n], words[pc-base:])
		m.invalidateUops(pc, n)
		pc += n
	}
	// A cached 32-bit instruction starting at base-1 (possibly on the
	// previous page) holds the old word at base as its operand word;
	// invalidate it so the patched word is seen.
	if base > 0 {
		m.invalidateUops(base-1, 1)
	}
	m.img.Store(nil)
	// Translated blocks fuse decoded words the same way; kill every block
	// overlapping the patched range (a block's [leader, end) span covers
	// operand words, so the base-1 case above is covered by overlap).
	m.xl.invalidate(base, base+uint32(len(words)))
	if end := base + uint32(len(words)); end > m.codeEnd {
		m.codeEnd = end
	}
	return nil
}

// invalidateUops unbuilds the n cached micro-ops from word pc, which all lie
// on one page. An absent page has nothing built, and a page invalidated
// whole is dropped rather than copied or cleared.
func (m *Machine) invalidateUops(pc, n uint32) {
	i := pageOf(pc)
	switch {
	case m.uops[i] == erasedUops:
	case n == pageWords:
		m.uops[i] = erasedUops
	default:
		off := pc % pageWords
		clear(ownPage(&m.uops, i).v[off : off+n])
	}
}

// FlashWord returns the program-memory word at addr.
func (m *Machine) FlashWord(addr uint32) uint16 {
	return m.flash[pageOf(addr)].v[addr%pageWords]
}

// SetTrapHandler installs the kernel's KTRAP entry point and the repeater
// that books the poll-loop repeats of its services (nil repeats nothing).
// Both are set in one call, so a handler swap cannot leave a stale
// repeater behind. Without a handler BREAK decodes as plain BREAK; with
// one, BREAK plus its following id word decodes as KTRAP (the micro-op
// cache is dropped to apply the change).
func (m *Machine) SetTrapHandler(h TrapHandler, r TrapRepeater) {
	m.trap, m.repeat = h, r
	// Blocks fused under the old KTRAP decode rule are stale.
	m.xl.reset()
	// Dropping every page leaves one shared with another machine intact
	// for that machine.
	m.uops = erasedUopTable
}

// SetRecorder attaches (or, with nil, detaches) the trace recorder the
// machine stamps events into. The kernel shares one recorder between the
// machine and itself so the merged stream is globally cycle-ordered.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// SetEnergyMeter attaches (or, with nil, detaches) the energy charge
// ledger. Attach before the first cycle: the meter derives CPU-active
// cycles from the clock minus its accrued sleep cycles, so a meter that
// missed part of the run would over-attribute active energy.
func (m *Machine) SetEnergyMeter(e *energy.Meter) { m.meter = e }

// EnergyMeter returns the attached energy meter, or nil.
func (m *Machine) EnergyMeter() *energy.Meter { return m.meter }

// powerEvent emits a KindPower transition when both a recorder and a meter
// are attached (unmetered traced runs keep byte-identical streams).
func (m *Machine) powerEvent(device uint64, busy bool) {
	if m.rec == nil || m.meter == nil {
		return
	}
	var b uint64
	if busy {
		b = 1
	}
	m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindPower, Task: -1, Arg: device, Arg2: b})
}

// Recorder returns the attached trace recorder, or nil.
func (m *Machine) Recorder() *trace.Recorder { return m.rec }

// ProfileHooks bundles the profiler callbacks SetProfileHooks installs. Any
// field may be nil; nil fields cost one pointer comparison at their site.
type ProfileHooks struct {
	// Instr is called once per executed instruction with the fetch PC, the
	// stack pointer after execution, and the cycles the instruction
	// consumed. For a KTRAP it is called before dispatch with the 1-cycle
	// fetch charge, so the charge lands on the task that reached the trap
	// even when the handler switches tasks.
	Instr func(pc uint32, sp uint16, cycles uint64)
	// Idle is called for each idle advance (AddIdleCycles / sleep).
	Idle func(n uint64)
	// Interrupt is called for each interrupt delivery's cycle charge.
	Interrupt func(n uint64)
}

// SetProfileHooks installs (or, with zero-value hooks, removes) the profiler
// callbacks.
func (m *Machine) SetProfileHooks(h ProfileHooks) {
	m.profInstr = h.Instr
	m.profIdle = h.Idle
	m.profIntr = h.Interrupt
}

// SetSampler installs (or, with nil fn or zero interval, removes) the
// telemetry sampling hook. fn fires with the nominal boundary cycle `at`
// (a multiple of every) at the first instruction boundary whose clock has
// reached it, in every tier the one a stepwise run fires at; after a long
// uninterrupted stretch (sleep) only the latest crossed boundary fires, so
// samplers see at most one sample per interval and never a catch-up flood.
// The clock is simulated, so firing points are deterministic across runs
// and hosts.
func (m *Machine) SetSampler(every uint64, fn func(at uint64)) {
	if fn == nil || every == 0 {
		m.sampleFn, m.sampleEvery, m.sampleNext = nil, 0, 0
	} else {
		m.sampleFn = fn
		m.sampleEvery = every
		m.sampleNext = (m.cycle/every + 1) * every
	}
	m.schedule()
}

// fireSample invokes the sampling hook for the latest boundary the clock has
// crossed and schedules the next one.
func (m *Machine) fireSample() {
	next := (m.cycle/m.sampleEvery + 1) * m.sampleEvery
	m.sampleNext = next
	m.schedule()
	m.sampleFn(next - m.sampleEvery)
}

// SetInjector arms (or, with nil fn, disarms) the fault-injection hook: fn
// runs once, in Step, at the first instruction boundary whose cycle clock
// has reached at, with the machine stopped there (after device sync, before
// interrupt delivery and dispatch). The hook disarms itself before firing,
// so fn may call SetInjector again to chain a later injection. While armed,
// at bounds the fused tier like any due hook, so the boundary is the same
// one per-instruction stepping fires at.
func (m *Machine) SetInjector(at uint64, fn func(*Machine)) {
	m.injectFn = fn
	m.injectAt = at
	if fn == nil {
		m.injectAt = 0
	}
	m.schedule()
}

// SetMemWatch installs (or, with nil, removes) the native-access watchpoint
// observer. It fires after a successful SRAM load/store/push/pop with the
// physical address and the instruction's fetch PC.
func (m *Machine) SetMemWatch(f func(pc uint32, addr uint16, write bool)) { m.memWatch = f }

// SetGuard arms the native-store guard: SP-relative and other unpatched SRAM
// accesses outside [lo, hi) fault. The kernel re-arms this per context
// switch.
func (m *Machine) SetGuard(lo, hi uint16) { m.guardLo, m.guardHi, m.guardOn = lo, hi, true }

// ClearGuard disables the native-store guard.
func (m *Machine) ClearGuard() { m.guardOn = false }

// PC returns the current program counter (word address).
func (m *Machine) PC() uint32 { return m.pc }

// SetPC sets the program counter (word address).
func (m *Machine) SetPC(pc uint32) { m.pc = pc & (FlashWords - 1) }

// Cycles returns the simulated cycle count since reset.
func (m *Machine) Cycles() uint64 { return m.cycle }

// IdleCycles returns cycles spent asleep, for CPU-utilization accounting.
func (m *Machine) IdleCycles() uint64 { return m.idle }

// AddCycles charges n extra cycles (kernel service overhead).
func (m *Machine) AddCycles(n uint64) { m.cycle += n }

// AddIdleCycles advances time by n cycles marked as idle (kernel idle loop).
func (m *Machine) AddIdleCycles(n uint64) {
	m.cycle += n
	m.idle += n
	if m.rec != nil && n > 0 {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindIdle, Task: -1, Arg: n})
	}
	if m.profIdle != nil && n > 0 {
		m.profIdle(n)
	}
	if m.meter != nil {
		m.meter.SleepCycles(n)
	}
}

// Reg returns register r0..r31.
func (m *Machine) Reg(i uint8) byte { return m.data[i&31] }

// SetReg writes register r0..r31.
func (m *Machine) SetReg(i uint8, v byte) { m.data[i&31] = v }

// RegPair returns the 16-bit pair starting at even register i (X/Y/Z).
func (m *Machine) RegPair(i uint8) uint16 {
	return uint16(m.data[i]) | uint16(m.data[i+1])<<8
}

// SetRegPair writes the 16-bit pair starting at even register i.
func (m *Machine) SetRegPair(i uint8, v uint16) {
	m.data[i] = byte(v)
	m.data[i+1] = byte(v >> 8)
}

// SP returns the hardware stack pointer.
func (m *Machine) SP() uint16 {
	return uint16(m.data[addrSPL]) | uint16(m.data[addrSPH])<<8
}

// SetSP writes the hardware stack pointer.
func (m *Machine) SetSP(sp uint16) {
	m.data[addrSPL] = byte(sp)
	m.data[addrSPH] = byte(sp >> 8)
}

// SREG returns the status register.
func (m *Machine) SREG() byte { return m.data[addrSREG] }

// SetSREG writes the status register.
func (m *Machine) SetSREG(v byte) { m.data[addrSREG] = v }

// Peek reads data memory without device side effects or guard checks
// (kernel/test access).
func (m *Machine) Peek(addr uint16) byte { return m.data[addr%DataSize] }

// Poke writes data memory without device side effects or guard checks
// (kernel/test access).
func (m *Machine) Poke(addr uint16, v byte) { m.data[addr%DataSize] = v }

// CopyData moves n bytes of data memory from src to dst, handling overlap
// (the kernel's stack-relocation memmove).
func (m *Machine) CopyData(dst, src, n uint16) {
	copy(m.data[dst:int(dst)+int(n)], m.data[src:int(src)+int(n)])
}

// Halt stops the machine with FaultHalt and the given note (e.g. "workload
// complete"). Step returns the fault from then on.
func (m *Machine) Halt(note string) {
	if m.fault == nil {
		m.fault = &Fault{Kind: FaultHalt, PC: m.pc, Note: note}
		if m.rec != nil {
			m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindHalt, Task: -1, Detail: note})
		}
	}
}

// Halted reports whether the machine has stopped, and why.
func (m *Machine) Halted() (bool, *Fault) { return m.fault != nil, m.fault }

// faultf records and returns a fault.
func (m *Machine) faultf(kind FaultKind, addr uint16, note string) error {
	m.fault = &Fault{Kind: kind, PC: m.pc, Addr: addr, Note: note}
	return m.fault
}

// fetchUop returns the micro-op cache entry at word address pc, predecoding
// the flash word on first execution. A word of erased flash decodes into
// the scratch entry erasedUop instead, valid until the next fetch, so a
// sled of them never copies a micro-op page.
func (m *Machine) fetchUop(pc uint32) (*uop, error) {
	pc &= FlashWords - 1
	u := &m.uops[pageOf(pc)].v[pc%pageWords]
	if u.in.Op == avr.OpInvalid {
		if m.flash[pageOf(pc)] == erasedFlash {
			u = &m.erasedUop
		} else {
			u = &ownPage(&m.uops, pageOf(pc)).v[pc%pageWords]
		}
		if err := m.buildUop(pc, u); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// fetch returns the decoded instruction at word address pc.
func (m *Machine) fetch(pc uint32) (avr.Inst, error) {
	u, err := m.fetchUop(pc)
	if err != nil {
		return avr.Inst{}, err
	}
	return u.in, nil
}

// InstAt decodes (with caching) the instruction at word address pc. It is
// the public variant of fetch for the kernel's branch-trampoline logic.
func (m *Machine) InstAt(pc uint32) (avr.Inst, error) { return m.fetch(pc) }

// Run executes until the machine faults/halts or until the cycle count
// reaches limit (0 = no limit). It returns nil when the limit stopped it.
func (m *Machine) Run(limit uint64) error {
	if err := m.RunUntil(limit); err != nil {
		return err
	}
	if m.rec != nil {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindBudget, Task: -1, Arg: limit})
	}
	return nil
}

// RunUntil is Run without the budget-expiry trace event (the kernel's run
// loop emits its own). It has two tiers. Step is the checked path: it runs
// whenever the ladder has per-instruction work — a fault, sleep, or pending
// interrupt to examine, stepwise mode, or an attached profiler — and for
// one instruction after due hooks fire. Otherwise, up to the next device
// event, the cycle limit and the hook schedule's due cycle, the fused tier
// (runTranslated) dispatches translated blocks, skips a device-poll loop's
// further iterations in one step once the loop has reached its fixed point,
// and retires erased flash a page at a time. Whatever it declines (a cold
// leader, a SLEEP/BREAK/undecodable one, or a block whose worst case does
// not fit before that stop) runs on Step until the next control transfer
// lands on another leader, or until Step enters erased flash. Both tiers
// stop at the instruction boundary where a stepwise run fires each hook.
func (m *Machine) RunUntil(limit uint64) error {
	for limit == 0 || m.cycle < limit {
		switch {
		case m.cycle >= m.due:
			m.fireDue()
		case m.fault != nil || m.sleeping || m.pending != 0 || m.stepwise || m.profInstr != nil:
		case m.cycle >= m.dev.nextEvent:
			m.syncDevices()
			continue
		default:
			halt, err := m.runTranslated(limit)
			if err != nil {
				return err
			}
			// A declined PC steps to the next control transfer, KTRAP or
			// SLEEP, whose landing the fused tier sees on the next pass,
			// or into erased flash, which the fused tier retires whole.
			for !halt && m.cycle < m.stop(limit) {
				pc := m.pc & (FlashWords - 1)
				if err := m.Step(); err != nil {
					return err
				}
				u := &m.uops[pageOf(pc)].v[pc%pageWords]
				halt = u.ctl || u.checked || m.flash[pageOf(m.pc)] == erasedFlash
			}
			continue
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// stop is the first cycle the fused tier must not reach: the device
// horizon, tightened to the run's limit (0 = none) and the due cycle.
func (m *Machine) stop(limit uint64) uint64 {
	s := min(m.dev.nextEvent, m.due)
	if limit != 0 && limit < s {
		s = limit
	}
	return s
}

// Step executes one instruction (or delivers one interrupt / sleeps).
func (m *Machine) Step() error {
	if m.fault != nil {
		return m.fault
	}
	if m.cycle >= m.dev.nextEvent {
		m.syncDevices()
	}
	if m.injectFn != nil && m.cycle >= m.injectAt {
		// Disarm before firing so the hook can chain a later injection by
		// re-arming from inside the callback.
		fn := m.injectFn
		m.SetInjector(0, nil)
		fn(m)
	}
	if m.pending != 0 && m.data[addrSREG]&flagI != 0 {
		m.deliverInterrupt()
		return nil
	}
	if m.sleeping {
		return m.advanceSleep()
	}
	u, err := m.fetchUop(m.pc)
	if err != nil {
		return m.faultf(FaultBadInst, 0, err.Error())
	}
	m.insts++
	fn := dispatch[byte(u.in.Op)]
	if m.profInstr == nil {
		return fn(m, u)
	}
	if u.in.Op == avr.OpKtrap {
		// The trap handler may switch tasks mid-exec; attribute the 1-cycle
		// KTRAP fetch to the task that reached the trap, before dispatch.
		// The kernel attributes the service's own charges itself.
		m.profInstr(m.pc, m.SP(), 1)
		return fn(m, u)
	}
	pc, before := m.pc, m.cycle
	err = fn(m, u)
	m.profInstr(pc, m.SP(), m.cycle-before)
	return err
}

// deliverInterrupt vectors to the highest-priority pending source.
func (m *Machine) deliverInterrupt() {
	var vec uint32
	switch {
	case m.pending&intTimer0 != 0:
		m.pending &^= intTimer0
		vec = VecTimer0
	case m.pending&intADC != 0:
		m.pending &^= intADC
		vec = VecADC
	case m.pending&intUART != 0:
		m.pending &^= intUART
		vec = VecUART
	default:
		m.pending &^= intRadioRx
		vec = VecRadioRx
	}
	m.sleeping = false
	m.pushWord(uint16(m.pc))
	m.data[addrSREG] &^= flagI
	m.pc = vec
	m.cycle += 4
	if m.profIntr != nil {
		m.profIntr(4)
	}
	if m.rec != nil {
		m.rec.Emit(trace.Event{Cycle: m.cycle, Kind: trace.KindInterrupt, Task: -1, Arg: uint64(vec)})
	}
}

// advanceSleep fast-forwards the clock to the next device event.
func (m *Machine) advanceSleep() error {
	next := m.dev.nextEvent
	if next == noEvent {
		return m.faultf(FaultDeadSleep, 0, "no device event scheduled")
	}
	if next > m.cycle {
		m.AddIdleCycles(next - m.cycle)
	}
	m.syncDevices()
	return nil
}

// Instructions returns the number of instructions executed since reset
// (interrupt deliveries and sleep advances excluded) — the numerator of the
// host-MIPS throughput metric.
func (m *Machine) Instructions() uint64 { return m.insts }

// SetStepwise forces Run and RunUntil onto the fully-checked per-instruction
// Step path, disabling the fused tier. It is the reference every identity
// test holds the default run against; both modes are cycle-identical.
func (m *Machine) SetStepwise(v bool) { m.stepwise = v }

// ClearFault clears a recorded fault so a supervising kernel can recover
// (e.g. grow a task's stack after a guard trip and retry the instruction;
// PC still points at the faulting instruction).
func (m *Machine) ClearFault() { m.fault = nil }

// Sleep puts the CPU into sleep mode, as the SLEEP instruction would. A
// supervising runtime that patches SLEEP out of application code uses this
// to re-enter the hardware sleep path after handling the trap.
func (m *Machine) Sleep() { m.sleeping = true }

// Wake clears sleep mode without delivering an interrupt — the supervising
// kernel's recovery path when a corrupted task executed a stray SLEEP and
// was terminated for it.
func (m *Machine) Wake() { m.sleeping = false }

// Energy model of the MICA2 node (CC1000 mote, 3 V supply): the ATmega128L
// draws ~8 mA active and ~15 µA in sleep mode. EnergyMilliJoules estimates
// the CPU energy consumed so far from the active/idle cycle split — the
// quantity the paper's introduction argues unpredictable latencies waste.
const (
	activeMilliAmps = 8.0
	sleepMilliAmps  = 0.015
	supplyVolts     = 3.0
)

// EnergyMilliJoules returns the estimated CPU energy spent since reset.
func (m *Machine) EnergyMilliJoules() float64 {
	active := float64(m.cycle-m.idle) / ClockHz
	idle := float64(m.idle) / ClockHz
	return (active*activeMilliAmps + idle*sleepMilliAmps) * supplyVolts
}
