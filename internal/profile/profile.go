// Package profile is the cycle-exact symbol profiler of the SenSmart
// reproduction. A per-instruction MCU hook attributes every simulated cycle
// to (task, symbol, PC) by resolving the program counter against each
// naturalized image's symbol table, while kernel call sites attribute the
// Table II service overheads to synthetic kernel.<service> frames. The
// resulting profile exports as pprof protobuf (go tool pprof), folded-stack
// text (speedscope / FlameGraph), and a CSV flat table.
//
// The package follows the trace.Recorder discipline: every emission site in
// the MCU and kernel is one nil pointer comparison when profiling is
// disabled, so the hooks cost nothing unless a Profiler is attached.
//
// On top of cycle attribution the Profiler carries a stack-depth flight
// recorder (periodic SP samples per task into a ring buffer, plus the
// relocation timeline) and a watchpoint engine that raises trace events when
// a watched logical data address is touched.
package profile

import (
	"slices"
	"sort"

	"repro/internal/rewriter"
	"repro/internal/trace"
)

// flashWords mirrors the MCU flash size (word-addressed); PC attribution
// masks into this range so a corrupt PC cannot index out of bounds.
const flashWords = 1 << 16

// MachineTask is the pseudo task id owning cycles spent outside any kernel
// task: native-mode execution, pre-boot code, and idle time.
const MachineTask int32 = -1

// Options tunes a Profiler.
type Options struct {
	// ClockHz converts cycles to wall time in the pprof export. 0 selects
	// the MICA2 clock (7.3728 MHz); the kernel overrides it at bind time.
	ClockHz uint64
	// StackInterval samples each task's SP every StackInterval cycles into
	// the flight-recorder ring. 0 disables stack sampling.
	StackInterval uint64
	// StackRing caps retained samples per task (ring buffer; oldest samples
	// are overwritten). 0 selects 4096.
	StackRing int
	// WatchLimit caps retained watchpoint hits. 0 selects 65536; further
	// hits are counted, not retained.
	WatchLimit int
}

// taskProf accumulates one task's cycle attribution and stack timeline.
type taskProf struct {
	id   int32
	name string
	// pl, ph, pu mirror the task's physical region so stack samples can
	// translate SP into a depth. pu == 0 means no region (machine task).
	pl, ph, pu uint16

	pcs   []uint64   // cycles per flash word address
	svc   [16]uint64 // kernel service overhead per rewriter.Class
	reloc uint64     // stack-relocation cycles charged in this task's window
	intr  uint64     // interrupt-delivery cycles landing in this task's window

	nextSample uint64
	ring       []StackSample
	ringPos    int
	wrapped    bool
	samples    uint64
	peak       uint32
	relocs     []RelocMark
}

// Profiler attributes simulated cycles to (task, symbol) buckets. It is not
// safe for concurrent use; each simulated system owns one.
type Profiler struct {
	o   Options
	sym *Symbolizer
	rec *trace.Recorder

	tasks map[int32]*taskProf
	order []int32 // registration order, machine task first
	cur   *taskProf
	now   uint64 // mirror of the machine cycle counter

	idle       uint64 // cycles outside any run window with no runnable task
	switches   uint64 // context-switch cycles (kernel-global)
	compaction uint64 // region-compaction cycles after task exits
	boot       uint64 // system-initialization cycles

	watches     []Watchpoint
	hits        []WatchHit
	droppedHits uint64
}

// New returns a Profiler ready to attach via kernel Config.Profile (or
// core.WithProfile). The machine pseudo task exists from the start so
// native-mode and pre-boot cycles are never lost.
func New(o Options) *Profiler {
	if o.StackRing == 0 {
		o.StackRing = 4096
	}
	if o.WatchLimit == 0 {
		o.WatchLimit = 65536
	}
	p := &Profiler{o: o, tasks: make(map[int32]*taskProf)}
	p.register(MachineTask, "machine", 0, 0, 0)
	p.cur = p.tasks[MachineTask]
	return p
}

// Fork returns an empty profiler with p's options and armed watchpoints.
func (p *Profiler) Fork() *Profiler {
	q := New(p.o)
	q.watches = slices.Clone(p.watches)
	return q
}

// Bind attaches the symbolizer, trace recorder, and clock the kernel wires
// in. The symbolizer pointer is captured before images load; it may be
// populated afterwards.
func (p *Profiler) Bind(sym *Symbolizer, rec *trace.Recorder, clockHz uint64) {
	p.sym = sym
	p.rec = rec
	if p.o.ClockHz == 0 {
		p.o.ClockHz = clockHz
	}
}

// Symbolizer returns the bound symbolizer (nil-safe to resolve against).
func (p *Profiler) Symbolizer() *Symbolizer { return p.sym }

func (p *Profiler) register(id int32, name string, pl, ph, pu uint16) *taskProf {
	t := &taskProf{id: id, name: name, pl: pl, ph: ph, pu: pu, pcs: make([]uint64, flashWords)}
	if p.o.StackInterval != 0 {
		t.ring = make([]StackSample, 0, p.o.StackRing)
		t.nextSample = p.now
	}
	p.tasks[id] = t
	p.order = append(p.order, id)
	return t
}

// RegisterTask declares a kernel task and its physical region [pl,pu).
func (p *Profiler) RegisterTask(id int32, name string, pl, ph, pu uint16) {
	p.register(id, name, pl, ph, pu)
}

// SetContext switches cycle attribution to task id (the kernel calls it on
// every context restore). Unknown ids attribute to the machine task.
func (p *Profiler) SetContext(id int32, pl, ph, pu uint16) {
	t := p.task(id)
	if t.id == id && pu != 0 {
		t.pl, t.ph, t.pu = pl, ph, pu
	}
	p.cur = t
}

// UpdateRegion records a region move (stack relocation / compaction shuffle)
// so stack-depth samples keep translating correctly.
func (p *Profiler) UpdateRegion(id int32, pl, ph, pu uint16) {
	if t, ok := p.tasks[id]; ok {
		t.pl, t.ph, t.pu = pl, ph, pu
	}
}

func (p *Profiler) task(id int32) *taskProf {
	if t, ok := p.tasks[id]; ok {
		return t
	}
	return p.tasks[MachineTask]
}

// OnInstr attributes one executed instruction: pc is the flash word address
// fetched, sp the stack pointer after execution, cycles the clock delta the
// instruction consumed. This is the hot path — the MCU calls it once per
// instruction when profiling is enabled.
func (p *Profiler) OnInstr(pc uint32, sp uint16, cycles uint64) {
	p.now += cycles
	t := p.cur
	t.pcs[pc&(flashWords-1)] += cycles
	if p.o.StackInterval != 0 && p.now >= t.nextSample {
		p.sampleStack(t, sp)
		t.nextSample = p.now + p.o.StackInterval
	}
}

// OnService attributes one KTRAP service: overhead cycles go to the task's
// kernel.<class> frame, the remainder of charged (the emulated instruction's
// own base cost) to the application symbol at pc. charged is the cycle
// amount the kernel advanced the clock by — the 1-cycle KTRAP fetch is
// attributed separately by OnInstr.
func (p *Profiler) OnService(task int32, class rewriter.Class, pc uint32, overhead, charged uint64) {
	p.now += charged
	t := p.task(task)
	t.svc[uint8(class)&15] += overhead
	i := pc & (flashWords - 1)
	if charged >= overhead {
		t.pcs[i] += charged - overhead
	} else {
		// Overhead can exceed the in-window charge by exactly the KTRAP
		// fetch cycle (an indirect-mem run faulting before its first
		// access); OnInstr booked that cycle to the symbol at this pc, so
		// reclaim it to keep the per-class ledgers equal.
		t.pcs[i] -= overhead - charged
	}
}

// OnAppExtra attributes extra application-side cycles (e.g. the taken-branch
// penalty the branch service re-applies) to the symbol at pc.
func (p *Profiler) OnAppExtra(task int32, pc uint32, n uint64) {
	p.now += n
	p.task(task).pcs[pc&(flashWords-1)] += n
}

// OnReloc attributes a stack-relocation charge to the task whose access
// triggered the growth, and records it on the stack timeline.
func (p *Profiler) OnReloc(task int32, pc uint32, granted, cycles uint64) {
	p.now += cycles
	t := p.task(task)
	t.reloc += cycles
	t.relocs = append(t.relocs, RelocMark{Cycle: p.now, PC: pc, Granted: granted, Cycles: cycles})
}

// OnInterrupt attributes interrupt-delivery cycles to the task whose run
// window they land in.
func (p *Profiler) OnInterrupt(n uint64) {
	p.now += n
	p.cur.intr += n
}

// OnSwitch books context-switch cycles (kernel-global, outside run windows).
func (p *Profiler) OnSwitch(n uint64) { p.now += n; p.switches += n }

// OnCompact books region-compaction cycles after a task exit.
func (p *Profiler) OnCompact(n uint64) { p.now += n; p.compaction += n }

// OnBoot books the system-initialization charge.
func (p *Profiler) OnBoot(n uint64) { p.now += n; p.boot += n }

// OnIdle books idle cycles (no runnable task).
func (p *Profiler) OnIdle(n uint64) { p.now += n; p.idle += n }

// TotalCycles returns the cycles attributed so far — equal to the machine
// clock when every advance site is hooked.
func (p *Profiler) TotalCycles() uint64 { return p.now }

// TaskTotal returns every cycle attributed to task id: application symbols,
// kernel service overhead, relocation, and in-window interrupt delivery.
// This is the quantity the identity test compares against the kernel
// ledger's per-task RunCycles.
func (p *Profiler) TaskTotal(id int32) uint64 {
	t, ok := p.tasks[id]
	if !ok {
		return 0
	}
	total := t.reloc + t.intr
	for _, c := range t.pcs {
		total += c
	}
	for _, c := range t.svc {
		total += c
	}
	return total
}

// TaskServiceOverhead returns task id's kernel overhead per service class.
func (p *Profiler) TaskServiceOverhead(id int32) [16]uint64 {
	if t, ok := p.tasks[id]; ok {
		return t.svc
	}
	return [16]uint64{}
}

// ServiceOverhead sums a service class's overhead across all tasks — the
// quantity matching the kernel's Stats.ServiceOverhead ledger.
func (p *Profiler) ServiceOverhead(class rewriter.Class) uint64 {
	var total uint64
	for _, t := range p.tasks {
		total += t.svc[uint8(class)&15]
	}
	return total
}

// Global bucket accessors, matching the kernel ledger's aggregate rows.
func (p *Profiler) BootCycles() uint64       { return p.boot }
func (p *Profiler) SwitchCycles() uint64     { return p.switches }
func (p *Profiler) CompactionCycles() uint64 { return p.compaction }
func (p *Profiler) IdleCycles() uint64       { return p.idle }

// RelocCycles sums in-window relocation charges across tasks.
func (p *Profiler) RelocCycles() uint64 {
	var total uint64
	for _, t := range p.tasks {
		total += t.reloc
	}
	return total
}

// FlatSample is one (task, frame) row of the flattened profile.
type FlatSample struct {
	// Task is the owning task's display name ("machine" and "kernel" are
	// the pseudo roots for unattributed and kernel-global cycles).
	Task string
	// Frame is the leaf name: an "image.symbol" application frame, a
	// synthetic "kernel.<service>" / "kernel.reloc" / "kernel.switch" /
	// "kernel.boot" / "kernel.compact" frame, "machine.interrupt", or
	// "idle".
	Frame string
	// PC is a representative flash word address for application frames
	// (the lowest hot address inside the symbol), 0 for synthetic frames.
	PC uint32
	// Cycles is the total attributed to this (task, frame) pair.
	Cycles uint64
}

// Flatten renders the profile as a deterministic flat table: tasks in
// registration order (machine first), application frames by descending
// cycles (name-ordered on ties), then the synthetic kernel frames, then the
// kernel-global pseudo task. Zero rows are omitted.
func (p *Profiler) Flatten() []FlatSample {
	var out []FlatSample
	for _, id := range p.order {
		t := p.tasks[id]
		out = append(out, p.flattenTask(t)...)
	}
	kernelRows := []FlatSample{
		{Task: "kernel", Frame: "kernel.boot", Cycles: p.boot},
		{Task: "kernel", Frame: "kernel.switch", Cycles: p.switches},
		{Task: "kernel", Frame: "kernel.compact", Cycles: p.compaction},
		{Task: "machine", Frame: "idle", Cycles: p.idle},
	}
	for _, r := range kernelRows {
		if r.Cycles > 0 {
			out = append(out, r)
		}
	}
	return out
}

func (p *Profiler) flattenTask(t *taskProf) []FlatSample {
	type agg struct {
		cycles uint64
		pc     uint32
	}
	byFrame := make(map[string]*agg)
	var names []string
	for pc, c := range t.pcs {
		if c == 0 {
			continue
		}
		name := p.sym.Resolve(uint32(pc)).Name()
		a, ok := byFrame[name]
		if !ok {
			a = &agg{pc: uint32(pc)}
			byFrame[name] = a
			names = append(names, name)
		}
		a.cycles += c
	}
	rows := make([]FlatSample, 0, len(names)+4)
	for _, name := range names {
		a := byFrame[name]
		rows = append(rows, FlatSample{Task: t.name, Frame: name, PC: a.pc, Cycles: a.cycles})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Frame < rows[j].Frame
	})
	for class, c := range t.svc {
		if c > 0 {
			rows = append(rows, FlatSample{
				Task: t.name, Frame: "kernel." + rewriter.Class(class).String(), Cycles: c,
			})
		}
	}
	if t.reloc > 0 {
		rows = append(rows, FlatSample{Task: t.name, Frame: "kernel.reloc", Cycles: t.reloc})
	}
	if t.intr > 0 {
		rows = append(rows, FlatSample{Task: t.name, Frame: "machine.interrupt", Cycles: t.intr})
	}
	return rows
}

// TopEntry is one row of the cross-task hot-symbol ranking.
type TopEntry struct {
	Frame   string
	Cycles  uint64
	Percent float64
}

// Top aggregates the flat profile across tasks and returns the n hottest
// frames (all frames when n <= 0).
func (p *Profiler) Top(n int) []TopEntry {
	byFrame := make(map[string]uint64)
	var names []string
	for _, s := range p.Flatten() {
		if _, ok := byFrame[s.Frame]; !ok {
			names = append(names, s.Frame)
		}
		byFrame[s.Frame] += s.Cycles
	}
	sort.Slice(names, func(i, j int) bool {
		if byFrame[names[i]] != byFrame[names[j]] {
			return byFrame[names[i]] > byFrame[names[j]]
		}
		return names[i] < names[j]
	})
	if n > 0 && len(names) > n {
		names = names[:n]
	}
	total := p.now
	out := make([]TopEntry, 0, len(names))
	for _, name := range names {
		e := TopEntry{Frame: name, Cycles: byFrame[name]}
		if total > 0 {
			e.Percent = float64(e.Cycles) / float64(total) * 100
		}
		out = append(out, e)
	}
	return out
}

// taskIDs returns all registered task ids in registration order.
func (p *Profiler) taskIDs() []int32 {
	ids := make([]int32, len(p.order))
	copy(ids, p.order)
	return ids
}

// TaskName resolves a registered task id to its display name.
func (p *Profiler) TaskName(id int32) string {
	if t, ok := p.tasks[id]; ok {
		return t.name
	}
	return "machine"
}
