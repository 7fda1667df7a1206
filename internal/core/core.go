// Package core orchestrates the complete SenSmart workflow of Figure 1:
// compile applications, naturalize them with the base-station rewriter,
// link them with the kernel, load the target image onto a simulated node,
// and run the tasks. It is the high-level entry point the public sensmart
// package (repository root) re-exports.
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/avr/asm"
	"repro/internal/energy"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/minic"
	"repro/internal/profile"
	"repro/internal/rewriter"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Option configures a System.
type Option interface {
	apply(*options)
}

type options struct {
	kernelCfg   kernel.Config
	rewriterCfg rewriter.Config
}

type kernelCfgOption kernel.Config

func (o kernelCfgOption) apply(opts *options) { opts.kernelCfg = kernel.Config(o) }

// WithKernelConfig overrides the kernel configuration (time slice, initial
// stack, memory reservations, relocation policy).
func WithKernelConfig(cfg kernel.Config) Option { return kernelCfgOption(cfg) }

type rewriterCfgOption rewriter.Config

func (o rewriterCfgOption) apply(opts *options) { opts.rewriterCfg = rewriter.Config(o) }

// WithRewriterConfig overrides the base-station rewriter configuration
// (grouping and trampoline-merge ablation switches).
func WithRewriterConfig(cfg rewriter.Config) Option { return rewriterCfgOption(cfg) }

type traceOption struct{ r *trace.Recorder }

func (o traceOption) apply(opts *options) { opts.kernelCfg.Trace = o.r }

// WithTrace attaches a trace recorder: the kernel and machine stamp typed
// cycle events into it as the system runs. Compose with WithKernelConfig by
// passing WithTrace after it (options apply in order).
func WithTrace(r *trace.Recorder) Option { return traceOption{r} }

type profileOption struct{ p *profile.Profiler }

func (o profileOption) apply(opts *options) { opts.kernelCfg.Profile = o.p }

// WithProfile attaches a cycle-exact profiler: every simulated cycle is
// attributed to (task, symbol, PC), kernel service overhead lands on
// synthetic kernel.<service> frames, and the profiler's stack flight
// recorder and watchpoints become active. With no profiler attached the
// per-instruction hook stays nil and costs one pointer compare. Compose
// with WithKernelConfig by passing WithProfile after it (options apply in
// order).
func WithProfile(p *profile.Profiler) Option { return profileOption{p} }

type telemetryOption struct{ s *telemetry.Sampler }

func (o telemetryOption) apply(opts *options) { opts.kernelCfg.Telemetry = o.s }

type energyOption struct{ m *energy.Meter }

func (o energyOption) apply(opts *options) { opts.kernelCfg.Energy = o.m }

// WithEnergy attaches a cycle-domain energy meter: the machine's device
// transition points charge the meter's per-device ledgers (radio/UART bytes,
// ADC conversions, timer spans, sleep cycles) and Metrics/telemetry samples
// gain joules attribution. With no meter attached every charge site stays a
// nil pointer compare, none of them on the interpreter's per-instruction
// path. Compose with WithKernelConfig by passing WithEnergy after it
// (options apply in order).
func WithEnergy(m *energy.Meter) Option { return energyOption{m} }

// WithTelemetry attaches a cycle-domain telemetry sampler: every
// sampler-interval simulated cycles the kernel snapshots its gauges —
// per-task CPU share, stack depth and high-water, trap/relocation/preemption
// counters, heap usage, idle fraction — into the sampler's ring buffer (and
// its NDJSON stream, if one is configured). With no sampler attached the
// machine's sampling hook stays nil and costs one pointer compare per
// run-loop horizon. Compose with WithKernelConfig by passing WithTelemetry
// after it (options apply in order).
func WithTelemetry(s *telemetry.Sampler) Option { return telemetryOption{s} }

// System is one node plus its build pipeline. Typical use:
//
//	sys := core.NewSystem()
//	prog, _ := sys.CompileString("blink", src)
//	task, _ := sys.Deploy(prog)
//	_ = sys.Boot()
//	_ = sys.Run(10_000_000)
type System struct {
	opts    options
	machine *mcu.Machine
	kernel  *kernel.Kernel
	nats    map[*image.Program]*rewriter.Naturalized
	tasks   []*kernel.Task
}

// NewSystem creates a fresh node with an attached SenSmart kernel.
func NewSystem(opts ...Option) *System {
	var o options
	for _, opt := range opts {
		opt.apply(&o)
	}
	return newSystem(o)
}

func newSystem(o options) *System {
	m := mcu.New()
	return &System{
		opts:    o,
		machine: m,
		kernel:  kernel.New(m, o.kernelCfg),
		nats:    make(map[*image.Program]*rewriter.Naturalized),
	}
}

// Fork returns an unbooted system built like s, without rewriting or
// loading any program again. It has s's kernel and rewriter configuration
// and fresh observers configured like s's: a trace recorder with the same
// Limit, a sampler with the same interval and ring but no stream, a
// profiler with the same options and watchpoints, an empty energy meter.
// s's tasks are admitted again, in order, from s's naturalized programs
// (later Deploys of s's programs reuse them too), and the fork shares s's
// flash and micro-op cache copy-on-write (see mcu.Machine.AdoptImage). A
// snapshot of s therefore restores into the fork in place of Boot. The
// kernel configuration's Logf and OnTaskExit callbacks are shared with s. s
// must be quiescent; forks of one s may be taken from several goroutines at
// once.
func (s *System) Fork() (*System, error) {
	o := s.opts
	cfg := &o.kernelCfg
	if cfg.Trace != nil {
		cfg.Trace = trace.NewLimited(cfg.Trace.Limit)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry = cfg.Telemetry.Fork()
	}
	if cfg.Profile != nil {
		cfg.Profile = cfg.Profile.Fork()
	}
	if cfg.Energy != nil {
		cfg.Energy = new(energy.Meter)
	}
	f := newSystem(o)
	for prog, nat := range s.nats {
		f.nats[prog] = nat
	}
	for _, t := range s.tasks {
		ft, err := f.kernel.AddTask(t.Name, t.Nat)
		if err != nil {
			return nil, err
		}
		f.tasks = append(f.tasks, ft)
	}
	f.machine.AdoptImage(s.machine)
	return f, nil
}

// CompileString assembles AVR source into a program image (the compiler
// stage of Figure 1).
func (s *System) CompileString(name, src string) (*image.Program, error) {
	return asm.Assemble(name, src)
}

// CompileCString compiles minic (C subset) source into a program image.
func (s *System) CompileCString(name, src string) (*image.Program, error) {
	return minic.Compile(name, src)
}

// Naturalize runs the base-station rewriter on prog (cached per program).
func (s *System) Naturalize(prog *image.Program) (*rewriter.Naturalized, error) {
	if nat, ok := s.nats[prog]; ok {
		return nat, nil
	}
	nat, err := rewriter.Rewrite(prog, s.opts.rewriterCfg)
	if err != nil {
		return nil, err
	}
	s.nats[prog] = nat
	return nat, nil
}

// Deploy naturalizes prog and admits one task instance. Before Boot it
// registers the task for startup; after Boot it spawns the task immediately
// (the paper's dynamic-reprogramming service).
func (s *System) Deploy(prog *image.Program) (*kernel.Task, error) {
	nat, err := s.Naturalize(prog)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s#%d", prog.Name, len(s.tasks))
	t, err := s.kernel.AddTask(name, nat)
	if err != nil {
		return nil, err
	}
	s.tasks = append(s.tasks, t)
	return t, nil
}

// Boot initializes the kernel and all deployed tasks.
func (s *System) Boot() error { return s.kernel.Boot() }

// Run executes until all tasks exit, the machine halts, or limit cycles
// elapse (0 = no limit).
func (s *System) Run(limit uint64) error { return s.kernel.Run(limit) }

// Done reports whether every task has terminated.
func (s *System) Done() bool { return s.kernel.Done() }

// Machine exposes the simulated node.
func (s *System) Machine() *mcu.Machine { return s.machine }

// Kernel exposes the running kernel (statistics, task table).
func (s *System) Kernel() *kernel.Kernel { return s.kernel }

// Tasks returns the deployed tasks in deployment order.
func (s *System) Tasks() []*kernel.Task { return append([]*kernel.Task(nil), s.tasks...) }

// Trace returns the attached trace recorder, or nil when tracing is off.
func (s *System) Trace() *trace.Recorder { return s.kernel.Cfg.Trace }

// Metrics snapshots the kernel's per-task and per-service cycle accounting.
// It works with or without an attached recorder.
func (s *System) Metrics() *trace.Metrics { return s.kernel.Metrics() }

// WriteTrace exports the recorded events as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto). It fails when no recorder is attached.
func (s *System) WriteTrace(w io.Writer) error {
	r := s.Trace()
	if r == nil {
		return errors.New("core: no trace recorder attached; use WithTrace")
	}
	return trace.WriteChrome(w, r.Events(), trace.ChromeOptions{
		ClockHz:     mcu.ClockHz,
		ServiceName: kernel.ServiceName,
	})
}

// Telemetry returns the attached telemetry sampler, or nil when sampling is
// off.
func (s *System) Telemetry() *telemetry.Sampler { return s.kernel.Cfg.Telemetry }

// SampleTelemetry records one final reconciled telemetry sample stamped at
// the current cycle — the snapshot harnesses take after Run returns so the
// stream's last line matches Metrics. It fails when no sampler is attached.
func (s *System) SampleTelemetry() (telemetry.Sample, error) {
	smp, ok := s.kernel.SampleTelemetryNow()
	if !ok {
		return telemetry.Sample{}, errors.New("core: no telemetry sampler attached; use WithTelemetry")
	}
	return smp, nil
}

// Energy returns the attached energy meter, or nil when metering is off.
func (s *System) Energy() *energy.Meter { return s.kernel.Cfg.Energy }

// Profile returns the attached profiler, or nil when profiling is off.
func (s *System) Profile() *profile.Profiler { return s.kernel.Cfg.Profile }

// WriteProfile exports the attached profiler in the named format: "pprof"
// (gzipped profile.proto for go tool pprof), "folded" (folded stacks for
// speedscope / flamegraph.pl), or "csv" (flat per-frame table). It fails
// when no profiler is attached.
func (s *System) WriteProfile(w io.Writer, format string) error {
	p := s.Profile()
	if p == nil {
		return errors.New("core: no profiler attached; use WithProfile")
	}
	switch format {
	case "pprof":
		return p.WritePprof(w)
	case "folded":
		return p.WriteFolded(w)
	case "csv":
		return p.WriteCSV(w)
	default:
		return fmt.Errorf("core: unknown profile format %q (want pprof, folded, or csv)", format)
	}
}

// ErrNoSymbol is returned when a heap symbol lookup fails.
var ErrNoSymbol = errors.New("core: no such heap symbol")

// TaskHeapByte reads one byte of a task's heap by data-symbol name, through
// the task's logical-to-physical mapping.
func (s *System) TaskHeapByte(t *kernel.Task, symbol string) (byte, error) {
	addr, err := s.taskHeapAddr(t, symbol, 1)
	if err != nil {
		return 0, err
	}
	return s.machine.Peek(addr), nil
}

// TaskHeapWord reads a little-endian 16-bit heap variable of a task.
func (s *System) TaskHeapWord(t *kernel.Task, symbol string) (uint16, error) {
	addr, err := s.taskHeapAddr(t, symbol, 2)
	if err != nil {
		return 0, err
	}
	return uint16(s.machine.Peek(addr)) | uint16(s.machine.Peek(addr+1))<<8, nil
}

func (s *System) taskHeapAddr(t *kernel.Task, symbol string, size uint16) (uint16, error) {
	sym, ok := t.Nat.Program.Lookup(symbol)
	if !ok || sym.Kind != image.SymData {
		return 0, fmt.Errorf("%w: %q in %s", ErrNoSymbol, symbol, t.Name)
	}
	pl, ph, _ := t.Region()
	logical := uint16(sym.Addr)
	off := logical - t.Nat.Program.HeapBase
	if off+size > ph-pl {
		return 0, fmt.Errorf("core: symbol %q outside task heap", symbol)
	}
	return pl + off, nil
}
