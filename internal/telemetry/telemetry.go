// Package telemetry is the live-monitoring layer of the SenSmart
// reproduction: a cycle-domain sampler that snapshots per-task and
// kernel-wide gauges into fixed-size ring buffers as the simulation runs,
// plus the exporters that make the rings observable mid-flight — Prometheus
// text exposition and a JSON time series over an embedded HTTP server, an
// inline HTML+SVG live dashboard, and deterministic NDJSON streaming to a
// file for offline tooling.
//
// Where trace (internal/trace) records *events* and profile
// (internal/profile) attributes *every cycle*, telemetry records *state at a
// cadence*: every Every simulated cycles the kernel snapshots its ledgers
// (the same counters System.Metrics aggregates) into one Sample. The sampler
// follows the same attachment discipline as the other two layers: a nil
// sampler costs the emitting code one pointer comparison, and an attached
// one is driven entirely by the deterministic simulated clock, so repeated
// runs — serial or under the parallel experiment pool — produce
// byte-identical sample streams.
package telemetry

import (
	"io"
	"sort"
	"sync"
)

// Options tunes a Sampler. The zero value selects the defaults.
type Options struct {
	// Every is the sampling interval in simulated cycles (default 65536,
	// ~8.9 ms of MICA2 time). The machine takes at most one sample per
	// interval, at the first execution point at or after each boundary.
	Every uint64
	// Ring caps the retained samples (default 1024). Older samples are
	// overwritten deterministically (plain modular wraparound); Total still
	// counts every sample ever recorded, and an attached Stream saw them all.
	Ring int
	// Stream, when set, receives one NDJSON line per sample as it is
	// recorded — the deterministic export for offline tooling. Write errors
	// are sticky and surfaced by StreamErr, not by the hot path.
	Stream io.Writer
}

// DefaultEvery is the default sampling interval in cycles.
const DefaultEvery = 65536

// DefaultRing is the default ring capacity in samples.
const DefaultRing = 1024

// TaskSample is one task's gauges inside a Sample.
type TaskSample struct {
	// ID is the kernel task id; Name its display name (registered once at
	// admission, carried on every sample so NDJSON lines are self-contained).
	ID   int32  `json:"id"`
	Name string `json:"name"`
	// State is the scheduling state at the sample point.
	State string `json:"state"`
	// RunCycles is the wall-clock cycles the task has held the CPU,
	// including the currently open run window; KernelCycles the kernel
	// overhead charged on the task's behalf.
	RunCycles    uint64 `json:"run_cycles"`
	KernelCycles uint64 `json:"kernel_cycles"`
	// StackUsed is the live stack depth in bytes; StackPeak the high-water
	// mark; StackAlloc the allocated stack bytes; HeapBytes the fixed heap.
	StackUsed  uint16 `json:"stack_used"`
	StackPeak  uint16 `json:"stack_peak"`
	StackAlloc uint16 `json:"stack_alloc"`
	HeapBytes  uint16 `json:"heap_bytes"`
	// Traps counts KTRAP services the task invoked so far; Relocations its
	// stack relocations; Switches how often it was scheduled in.
	Traps       uint64 `json:"traps"`
	Relocations int    `json:"relocations"`
	Switches    int    `json:"switches"`
	// EnergyPJ is the CPU energy attributed to the task so far (RunCycles at
	// the active-draw coefficient), in picojoules. Present only when an
	// energy meter is attached; omitted from NDJSON otherwise, so unmetered
	// streams stay byte-identical.
	EnergyPJ uint64 `json:"energy_pj,omitempty"`
}

// Sample is one cycle-stamped snapshot of the kernel-wide gauges plus every
// task's gauges. All counter fields are cumulative since boot; consumers
// derive rates (relocations/s, trap rate, CPU share) by differencing
// consecutive samples.
type Sample struct {
	// At is the nominal sample boundary (a multiple of Every); Cycle the
	// machine clock when the snapshot was actually taken (>= At: the first
	// instruction boundary at or after At, the same on every interpreter
	// tier; a kernel service in flight moves it past the service).
	At    uint64 `json:"at"`
	Cycle uint64 `json:"cycle"`
	// IdleCycles mirrors the machine's idle ledger.
	IdleCycles uint64 `json:"idle_cycles"`
	// Kernel-cycle breakdown, identical to the System.Metrics decomposition:
	// KernelCycles = ServiceOverhead + SwitchCycles + RelocCycles + BootCycles.
	ServiceOverheadCycles uint64 `json:"service_overhead_cycles"`
	SwitchCycles          uint64 `json:"switch_cycles"`
	RelocCycles           uint64 `json:"reloc_cycles"`
	BootCycles            uint64 `json:"boot_cycles"`
	// Scheduler counters (cumulative).
	ContextSwitches int    `json:"context_switches"`
	Preemptions     int    `json:"preemptions"`
	SliceChecks     uint64 `json:"slice_checks"`
	BranchTraps     uint64 `json:"branch_traps"`
	Relocations     int    `json:"relocations"`
	RelocatedBytes  uint64 `json:"relocated_bytes"`
	Terminations    int    `json:"terminations"`
	// Memory gauges: live task heap and stack allocation, and the free
	// trailing bytes of the application area.
	HeapBytes  uint32 `json:"heap_bytes"`
	StackBytes uint32 `json:"stack_bytes"`
	FreeBytes  uint32 `json:"free_bytes"`
	// Running is the task holding the CPU at the sample point, or -1.
	Running int32 `json:"running"`
	// Energy gauges (cumulative picojoules since boot), filled only when an
	// energy meter is attached and omitted from NDJSON otherwise, so
	// unmetered streams stay byte-identical. EnergyPJ is the system total;
	// the rest are the per-component split of the same ledger.
	EnergyPJ          uint64 `json:"energy_pj,omitempty"`
	EnergyCPUActivePJ uint64 `json:"energy_cpu_active_pj,omitempty"`
	EnergyCPUSleepPJ  uint64 `json:"energy_cpu_sleep_pj,omitempty"`
	EnergyRadioPJ     uint64 `json:"energy_radio_pj,omitempty"`
	EnergyUARTPJ      uint64 `json:"energy_uart_pj,omitempty"`
	EnergyADCPJ       uint64 `json:"energy_adc_pj,omitempty"`
	EnergyTimerPJ     uint64 `json:"energy_timer_pj,omitempty"`
	// Tasks carries one entry per admitted task, in task-id order.
	Tasks []TaskSample `json:"tasks"`
}

// KernelCycles returns the total kernel-attributed cycles of the snapshot —
// the same sum System.Metrics reports.
func (s *Sample) KernelCycles() uint64 {
	return s.ServiceOverheadCycles + s.SwitchCycles + s.RelocCycles + s.BootCycles
}

// AppCycles returns busy-minus-kernel cycles, clamped at zero like the
// Metrics aggregation.
func (s *Sample) AppCycles() uint64 {
	busy := s.Cycle - s.IdleCycles
	if k := s.KernelCycles(); busy > k {
		return busy - k
	}
	return 0
}

// IdleFraction returns the idle share of the snapshot's total cycles.
func (s *Sample) IdleFraction() float64 {
	if s.Cycle == 0 {
		return 0
	}
	return float64(s.IdleCycles) / float64(s.Cycle)
}

// Sampler collects cycle-domain samples into a fixed-size ring. The
// simulation goroutine records; the HTTP server (and any other reader)
// snapshots concurrently, so every access takes the mutex — at sampling
// cadence (default one lock per 65536 simulated cycles) the cost is
// unmeasurable next to the simulation itself.
type Sampler struct {
	every uint64
	ring  int

	mu      sync.Mutex
	samples []Sample // ring storage, capacity `ring`
	next    int      // ring write index once len(samples) == ring
	total   uint64   // samples ever recorded, including overwritten
	names   map[int32]string
	order   []int32 // registered task ids in admission order
	stream  io.Writer
	serr    error
}

// New returns a Sampler ready to attach (kernel.Config.Telemetry or
// core.WithTelemetry).
func New(o Options) *Sampler {
	if o.Every == 0 {
		o.Every = DefaultEvery
	}
	if o.Ring <= 0 {
		o.Ring = DefaultRing
	}
	return &Sampler{
		every:  o.Every,
		ring:   o.Ring,
		stream: o.Stream,
		names:  make(map[int32]string),
	}
}

// Fork returns an empty sampler with s's interval and ring capacity and no
// stream, so a second system sampled like s's writes nothing to s's sink.
func (s *Sampler) Fork() *Sampler { return New(Options{Every: s.every, Ring: s.ring}) }

// Every returns the sampling interval in cycles.
func (s *Sampler) Every() uint64 { return s.every }

// RegisterTask names a task id for the exporters. The kernel calls it at
// admission; late registrations apply to subsequent samples only.
func (s *Sampler) RegisterTask(id int32, name string) {
	s.mu.Lock()
	if _, ok := s.names[id]; !ok {
		s.order = append(s.order, id)
	}
	s.names[id] = name
	s.mu.Unlock()
}

// TaskName resolves a registered task id (empty string when unknown).
func (s *Sampler) TaskName(id int32) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.names[id]
}

// Record appends one sample, overwriting the oldest once the ring is full,
// and streams its NDJSON line when a Stream is attached. The caller (the
// kernel's sampling hook) passes a sample it will not touch again.
func (s *Sampler) Record(smp Sample) {
	s.mu.Lock()
	if len(s.samples) < s.ring {
		s.samples = append(s.samples, smp)
	} else {
		s.samples[s.next] = smp
		s.next = (s.next + 1) % s.ring
	}
	s.total++
	if s.stream != nil && s.serr == nil {
		line := appendNDJSON(nil, &smp)
		if _, err := s.stream.Write(line); err != nil {
			s.serr = err
		}
	}
	s.mu.Unlock()
}

// Samples returns the retained window, oldest first. The slice is a copy;
// mutate freely.
func (s *Sampler) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, len(s.samples))
	out = append(out, s.samples[s.next:]...)
	out = append(out, s.samples[:s.next]...)
	return out
}

// Last returns the most recent sample, if any.
func (s *Sampler) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	i := s.next - 1
	if i < 0 {
		i = len(s.samples) - 1
	}
	return s.samples[i], true
}

// Total returns how many samples were ever recorded (retained or not).
func (s *Sampler) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Dropped returns how many recorded samples the ring has overwritten.
func (s *Sampler) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total - uint64(len(s.samples))
}

// StreamErr returns the first error the NDJSON stream writer reported, if
// any; recording continues (ring only) after a stream failure.
func (s *Sampler) StreamErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serr
}

// taskIDs returns the registered task ids sorted ascending — the
// deterministic iteration order the exporters use.
func (s *Sampler) taskIDs() []int32 {
	ids := append([]int32(nil), s.order...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
