package faultinject

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Containment verdicts, ordered most-severe-first — classify reports the
// first one whose evidence holds.
const (
	VerdictKernelCompromise   = "kernel-compromise"
	VerdictCrossTaskBreach    = "cross-task-breach"
	VerdictContainedFault     = "contained-fault"
	VerdictSilentCorruption   = "silent-corruption"
	VerdictContainedRecovered = "contained-recovered"
)

// Benchmark names one campaign workload: a victim program that must exit on
// its own in an uninjected run.
type Benchmark struct {
	Name    string
	Program *image.Program
}

// Benchmarks returns the campaign suite: the seven kernel benchmarks of the
// paper's evaluation at reduced workload sizes (a campaign runs hundreds of
// full system boots, so each golden run is kept under a few million cycles)
// plus the deliberately vulnerable radiosink receiver.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{"am", progs.AM(6)},
		{"amplitude", progs.Amplitude(40)},
		{"crc", progs.CRC(12)},
		{"eventchain", progs.EventChain(60)},
		{"lfsr", progs.LFSR(3000)},
		{"readadc", progs.ReadADC(40)},
		{"timer", progs.Timer(8)},
		{"radiosink", RadioSink(4)},
	}
}

// Spec configures a campaign: every (Seed, benchmark, trial) triple fully
// determines one injection, so reports are reproducible byte-for-byte.
type Spec struct {
	Seed   uint64
	Trials int
}

// Trial records one injection and its verdict. Non-contained verdicts carry
// a forensic report reconstructing how the payload escaped.
type Trial struct {
	Trial    int       `json:"trial"`
	Kind     string    `json:"kind"`
	Site     string    `json:"site"`
	Verdict  string    `json:"verdict"`
	Detail   string    `json:"detail,omitempty"`
	Forensic *Forensic `json:"forensics,omitempty"`
}

// Report aggregates one benchmark's trials.
type Report struct {
	Benchmark    string         `json:"benchmark"`
	GoldenCycles uint64         `json:"golden_cycles"`
	Verdicts     map[string]int `json:"verdicts"`
	Trials       []Trial        `json:"trials"`
	// Ledger splits the call's simulated work by phase. It stays out of
	// the JSON, so report digests do not depend on how the work was done.
	Ledger Ledger `json:"-"`
}

// goldenLimit caps the uninjected reference run; a benchmark that cannot
// finish inside it is misconfigured for campaign use.
const goldenLimit = 400_000_000

// trialSlack is added on top of twice the golden runtime to bound each
// trial: enough headroom for containment and relocation detours, small
// enough that livelocks resolve quickly.
const trialSlack = 2_000_000

// rearmDelay is how long a victim-gated injection waits before re-checking
// whether the victim holds the CPU.
const rearmDelay = 512

// goldenEvery is the spacing, in cycles, of the checkpoints the golden run
// keeps for trials and forensic replays to restore. Each capture copies the
// whole data space, so the spacing trades allocation against re-executed
// prefix: on the repository benchmark's campaign workload, 2^15 allocated
// 18 % more per call than 2^16 and 2^17 9 % less, while throughput stayed
// within run-to-run noise of 2^16.
const goldenEvery = 1 << 16

// Ledger counts one RunBenchmark call's simulated cycles by phase. Every
// count is deterministic. Restored cycles are golden-run prefix that forks
// skipped; every other count is work executed.
type Ledger struct {
	// Restored sums the capture cycles of the golden checkpoints that trials
	// and replays restored instead of re-executing them from boot.
	Restored uint64
	// Booted counts forks that booted from cycle 0 because no golden
	// checkpoint came before their start.
	Booted int
	// TrialPrefix is what trials executed before their injection fired
	// (all of an unfired trial's run), TrialSuffix what they executed after.
	TrialPrefix, TrialSuffix uint64
	// TrialLead is the most any trial restored from a checkpoint executed
	// between that checkpoint and its planned fire cycle.
	TrialLead uint64
	// LockstepPrefix is what both sides of the forensic lockstep executed
	// up to the fire cycle, LockstepStepped what they then executed one
	// instruction boundary at a time.
	LockstepPrefix, LockstepStepped uint64
	// Traced is what the traced forensic replays executed. TracedBoots
	// counts those that restored a checkpoint too close to the divergence
	// cycle to fill the event ring and so replayed again from boot.
	Traced      uint64
	TracedBoots int
}

// outcome captures everything classify needs from one run.
type outcome struct {
	k                *kernel.Kernel
	m                *mcu.Machine
	victim, sentinel *kernel.Task
	// base is the clock the run started from: the restored checkpoint's
	// capture cycle, or the end of boot when restored is false.
	base     uint64
	restored bool
	// victimDone is set by the exit hook on the victim's termination —
	// normal or faulted; ExitReason distinguishes. The machine halts
	// there: a trial is over once its victim is.
	victimDone bool
	exitCycle  uint64
	victimHeap []byte
	uart       []byte
	radio      []byte
	// sentinelHeap is the witness pattern at the end of the run. The
	// pattern ships in .data and is never legitimately written, so it is
	// comparable across runs regardless of when each one stopped.
	sentinelHeap []byte
	runErr       error
	// firedAt is the boundary clock the armed injection actually fired at
	// (0 = never fired) — the anchor forensic replays lockstep from.
	firedAt uint64
}

// snapshotHeap copies a task's live heap bytes [pl, ph).
func snapshotHeap(m *mcu.Machine, t *kernel.Task) []byte {
	pl, ph, _ := t.Region()
	out := make([]byte, 0, ph-pl)
	for a := pl; a < ph; a++ {
		out = append(out, m.Peek(a))
	}
	return out
}

// flattenRadio reduces transmitted frames to their payload bytes: trial
// timing legitimately shifts under injection, so cycles are not compared.
func flattenRadio(frames []mcu.RadioFrame) []byte {
	out := make([]byte, len(frames))
	for i, f := range frames {
		out[i] = f.Byte
	}
	return out
}

// sentinelNat is the witness task, naturalized once per process. A kernel
// only reads the programs it admits, so every campaign system shares it.
var sentinelNat = sync.OnceValues(func() (*rewriter.Naturalized, error) {
	return rewriter.Rewrite(SentinelProgram(), rewriter.Config{})
})

// campaign is the state of one RunBenchmark call: the golden system that
// every trial and replay forks, the checkpoints its run kept, and the runs
// in flight. A fork shares its parent's kernel configuration, exit hook
// included, so the hook finds each run's outcome by its kernel.
type campaign struct {
	name   string
	golden *core.System
	ring   []*snapshot.State // golden checkpoints, ascending capture cycles
	runs   map[*kernel.Kernel]*outcome
	// traced is an unbooted twin of golden with a forensic trace ring
	// attached, built on first use: traced replays fork it.
	traced *core.System
	ledger Ledger
}

func newCampaign(name string) *campaign {
	return &campaign{name: name, runs: make(map[*kernel.Kernel]*outcome)}
}

// newSystem builds an unbooted system running the victim, under the
// campaign's name, beside the sentinel.
func (c *campaign) newSystem(victimNat, sentinelNat *rewriter.Naturalized, opts ...core.Option) (*core.System, error) {
	opts = append([]core.Option{core.WithKernelConfig(kernel.Config{OnTaskExit: c.onExit})}, opts...)
	sys := core.NewSystem(opts...)
	if _, err := sys.Admit(c.name, victimNat); err != nil {
		return nil, fmt.Errorf("faultinject: add victim: %w", err)
	}
	if _, err := sys.Admit("sentinel", sentinelNat); err != nil {
		return nil, fmt.Errorf("faultinject: add sentinel: %w", err)
	}
	return sys, nil
}

// onExit is every campaign system's exit hook: it records the victim's
// outputs and halts the machine, since a run is over once its victim is.
func (c *campaign) onExit(k *kernel.Kernel, t *kernel.Task) {
	o := c.runs[k]
	if o == nil || t != o.victim || o.victimDone {
		return
	}
	o.victimDone = true
	o.exitCycle = o.m.Cycles()
	o.victimHeap = snapshotHeap(o.m, t)
	o.uart = o.m.UARTOutput()
	o.radio = flattenRadio(o.m.RadioOutput())
	o.m.Halt("faultinject: victim done")
}

// track registers a run of sys with the exit hook.
func (c *campaign) track(sys *core.System) *outcome {
	tasks := sys.Tasks()
	o := &outcome{k: sys.Kernel(), m: sys.Machine(), victim: tasks[0], sentinel: tasks[1]}
	c.runs[o.k] = o
	return o
}

// release drops finished runs from the hook's table.
func (c *campaign) release(runs ...*outcome) {
	for _, o := range runs {
		delete(c.runs, o.k)
	}
}

// recordGolden boots the golden system and runs it uninjected, capturing a
// checkpoint every `every` cycles (none when every is 0) and keeping them
// all. The golden run carries no trace recorder: with one attached the
// kernel declines to fast-forward trap-closed device-poll loops.
func (c *campaign) recordGolden(every uint64) (*outcome, error) {
	o := c.track(c.golden)
	if err := c.golden.Boot(); err != nil {
		return nil, fmt.Errorf("faultinject: boot: %w", err)
	}
	var captureErr error
	var arm func(at uint64)
	arm = func(at uint64) {
		c.golden.ArmCheckpoint(at, func(st *snapshot.State, err error) {
			if err != nil {
				captureErr = err
				return
			}
			c.ring = append(c.ring, st)
			// A boundary may overshoot the next slot (a long trap or sleep
			// window); keep the spacing from where the run is.
			arm(max(at+every, o.m.Cycles()+1))
		})
	}
	if every > 0 {
		arm(every)
	}
	c.finish(o, goldenLimit)
	o.m.SetCheckpoint(0, nil) // drop a not-yet-fired capture
	if captureErr != nil {
		return nil, fmt.Errorf("faultinject: golden checkpoint: %w", captureErr)
	}
	return o, nil
}

// checkpoint returns the newest golden checkpoint captured at or before
// cycle, or nil.
func (c *campaign) checkpoint(cycle uint64) *snapshot.State {
	n := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].Machine.Cycle > cycle })
	if n == 0 {
		return nil
	}
	return c.ring[n-1]
}

// start forks src, a system built like golden, and positions the fork at
// the newest golden checkpoint at or before cycle: restored, in place of
// re-executing the golden prefix, or booted when no checkpoint comes
// before cycle. A fork carrying a trace recorder starts its trace empty
// (the golden run records none).
func (c *campaign) start(src *core.System, cycle uint64) (*outcome, error) {
	sys, err := src.Fork()
	if err != nil {
		return nil, err
	}
	o := c.track(sys)
	if st := c.checkpoint(cycle); st != nil {
		if rec := sys.Trace(); rec != nil {
			withTrace := *st
			withTrace.Trace = &trace.RecorderState{Limit: rec.Limit}
			st = &withTrace
		}
		if err := sys.Restore(st); err != nil {
			return nil, fmt.Errorf("faultinject: restore golden checkpoint: %w", err)
		}
		o.restored = true
		c.ledger.Restored += st.Machine.Cycle
	} else {
		if err := sys.Boot(); err != nil {
			return nil, fmt.Errorf("faultinject: boot: %w", err)
		}
		c.ledger.Booted++
	}
	o.base = o.m.Cycles()
	return o, nil
}

// finish runs o to the victim's termination or the cycle limit. A failing
// kernel run lands in outcome.runErr for classification.
func (c *campaign) finish(o *outcome, limit uint64) {
	o.runErr = o.k.Run(limit)
	if o.sentinel.State() != kernel.TaskTerminated {
		o.sentinelHeap = snapshotHeap(o.m, o.sentinel)
	}
}

// trialKinds is the rotation a campaign cycles through, so even a short
// campaign covers every fault model.
var trialKinds = []Kind{KindSRAMFlip, KindSRAMBurst, KindRegFlip, KindStackSmash, KindRetAddr, KindRadio}

// plan is one trial's pre-drawn randomness: all draws happen before the run
// so the stream never depends on simulation state.
type plan struct {
	kind     Kind
	at       uint64
	offBits  uint64 // region-relative site selector (sram kinds)
	bit      uint8
	burstLen uint8
	reg      uint8
	smashLen uint8
	value    byte
	target   uint16 // retaddr hijack destination (flash word address)
	payload  []byte
}

// drawPlan derives trial trialIdx's injection from the campaign seed.
func drawPlan(spec Spec, benchIdx, trialIdx int, goldenExit uint64) plan {
	r := newTrialRNG(spec.Seed, benchIdx, trialIdx)
	p := plan{kind: trialKinds[trialIdx%len(trialKinds)]}
	// Fire somewhere inside the victim's golden lifetime, past boot.
	window := goldenExit - kernel.CostSysInit
	if window == 0 {
		window = 1
	}
	p.at = kernel.CostSysInit + r.next()%window
	switch p.kind {
	case KindSRAMFlip:
		p.offBits, p.bit = r.next(), uint8(r.intn(8))
	case KindSRAMBurst:
		p.offBits, p.burstLen, p.bit = r.next(), uint8(2+r.intn(7)), uint8(r.intn(8))
	case KindRegFlip:
		p.reg, p.bit = uint8(r.intn(32)), uint8(r.intn(8))
	case KindStackSmash:
		p.smashLen, p.value = uint8(8+r.intn(33)), r.byteVal()
	case KindRetAddr:
		p.target = uint16(r.next())
	case KindRadio:
		// Always oversized relative to the radiosink's 8-byte buffer: a
		// length prefix of 8..39 followed by that many bytes.
		n := 9 + r.intn(31)
		p.payload = make([]byte, n)
		p.payload[0] = byte(n - 1)
		for i := 1; i < n; i++ {
			p.payload[i] = r.byteVal()
		}
	}
	return p
}

// armPlan schedules the planned injection on a booted or restored system.
// Region- and SP-relative sites resolve at fire time (regions move under
// relocation; SP is a flight-recorder quantity), and victim-gated kinds
// re-arm until the victim actually holds the CPU. It returns a site report:
// "unfired" until the injection lands, then the resolved absolute site.
func armPlan(o *outcome, p plan) *string {
	site := "unfired"
	m, k, victim := o.m, o.k, o.victim
	record := func(in Injection) {
		in.Apply(m)
		in.At = m.Cycles() // stamp the actual fire cycle into the site report
		site = in.String()
		o.firedAt = in.At
	}
	switch p.kind {
	case KindSRAMFlip, KindSRAMBurst:
		m.SetInjector(p.at, func(m *mcu.Machine) {
			if victim.State() == kernel.TaskTerminated {
				return
			}
			n := uint16(1)
			if p.kind == KindSRAMBurst {
				n = uint16(p.burstLen)
			}
			pl, _, pu := victim.Region()
			if pu-pl < n { // degenerate region: nothing to hit safely
				return
			}
			// Keep the whole flip inside the victim's region: a burst
			// straddling a region boundary would corrupt the neighbour
			// physically, which no kernel could contain and which would
			// poison the breach verdict.
			addr := pl + uint16(p.offBits%uint64(pu-pl-n+1))
			record(Injection{Kind: p.kind, Addr: addr, Bit: p.bit, Len: p.burstLen})
		})
	case KindRegFlip, KindStackSmash, KindRetAddr:
		var fn func(m *mcu.Machine)
		fn = func(m *mcu.Machine) {
			if victim.State() == kernel.TaskTerminated {
				return
			}
			if k.Current() != victim {
				m.SetInjector(m.Cycles()+rearmDelay, fn)
				return
			}
			switch p.kind {
			case KindRegFlip:
				record(Injection{Kind: KindRegFlip, Reg: p.reg, Bit: p.bit})
			case KindStackSmash:
				// Smash only what fits inside the victim's own region
				// above the live SP (same boundary discipline as bursts).
				_, _, pu := victim.Region()
				sp := m.SP()
				n := p.smashLen
				if room := int(pu) - int(sp) - 1; room < int(n) {
					if room <= 0 {
						m.SetInjector(m.Cycles()+rearmDelay, fn)
						return
					}
					n = uint8(room)
				}
				record(Injection{Kind: KindStackSmash, Len: n, Value: p.value})
			case KindRetAddr:
				_, _, pu := victim.Region()
				if uint32(m.SP())+2 >= uint32(pu) { // no frame on the stack yet
					m.SetInjector(m.Cycles()+rearmDelay, fn)
					return
				}
				record(Injection{Kind: KindRetAddr, Addr: p.target})
			}
		}
		m.SetInjector(p.at, fn)
	case KindRadio:
		m.SetInjector(p.at, func(m *mcu.Machine) {
			record(Injection{Kind: KindRadio, Payload: p.payload})
		})
	}
	return &site
}

// classify compares a trial against the golden run, most severe verdict
// first.
func classify(golden, trial *outcome) (verdict, detail string) {
	if trial.runErr != nil {
		return VerdictKernelCompromise, "kernel error: " + trial.runErr.Error()
	}
	if trial.sentinel.State() == kernel.TaskTerminated {
		return VerdictCrossTaskBreach, "sentinel terminated: " + trial.sentinel.ExitReason
	}
	if !bytes.Equal(trial.sentinelHeap, golden.sentinelHeap) {
		detail := "sentinel heap diverged"
		if len(trial.sentinelHeap) >= sentinelPatLen+2 &&
			trial.sentinelHeap[sentinelPatLen] == 0xEF && trial.sentinelHeap[sentinelPatLen+1] == 0xBE {
			detail = "sentinel flagged pattern corruption"
		}
		return VerdictCrossTaskBreach, detail
	}
	if trial.victimDone && trial.victim.ExitReason != "exited" {
		detail := trial.victim.ExitReason
		if rec, ok := trial.k.LastFault(trial.victim.ID); ok {
			detail = fmt.Sprintf("%s in %s service: %s", rec.Kind, rec.ServiceName(), rec.Reason)
		}
		return VerdictContainedFault, detail
	}
	if !trial.victimDone {
		return VerdictContainedFault, "livelock: trial cycle budget exhausted"
	}
	switch {
	case !bytes.Equal(trial.victimHeap, golden.victimHeap):
		return VerdictSilentCorruption, "victim heap differs from golden run"
	case !bytes.Equal(trial.uart, golden.uart):
		return VerdictSilentCorruption, fmt.Sprintf("uart differs from golden run (%q vs %q)", trial.uart, golden.uart)
	case !bytes.Equal(trial.radio, golden.radio):
		return VerdictSilentCorruption, "radio output differs from golden run"
	}
	return VerdictContainedRecovered, ""
}

// RunBenchmark runs one benchmark's full trial set: one golden reference
// run, then Spec.Trials injected runs, each classified against the golden
// outputs. benchIdx keys the RNG, so a benchmark's trials do not depend on
// which other benchmarks the campaign includes. The golden run keeps a
// checkpoint every goldenEvery cycles, and each trial and forensic replay
// forks the golden system from the newest one before its first
// injection-dependent cycle: the runs retrace the golden run exactly up to
// there, so the report is the same as if each had booted from cycle 0.
func RunBenchmark(b Benchmark, spec Spec, benchIdx int) (Report, error) {
	return runBenchmark(b, spec, benchIdx, goldenEvery)
}

// runBenchmark is RunBenchmark with the golden checkpoint spacing as a
// parameter; every == 0 keeps no checkpoints, so every trial and replay
// boots from cycle 0.
func runBenchmark(b Benchmark, spec Spec, benchIdx int, every uint64) (Report, error) {
	victimNat, err := rewriter.Rewrite(b.Program.Clone(), rewriter.Config{})
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: rewrite %s: %w", b.Name, err)
	}
	sentinel, err := sentinelNat()
	if err != nil {
		return Report{}, fmt.Errorf("faultinject: rewrite sentinel: %w", err)
	}
	c := newCampaign(b.Name)
	if c.golden, err = c.newSystem(victimNat, sentinel); err != nil {
		return Report{}, err
	}
	golden, err := c.recordGolden(every)
	if err != nil {
		return Report{}, err
	}
	if golden.runErr != nil {
		return Report{}, fmt.Errorf("faultinject: golden run of %s failed: %w", b.Name, golden.runErr)
	}
	if !golden.victimDone || golden.victim.ExitReason != "exited" {
		return Report{}, fmt.Errorf("faultinject: golden run of %s did not exit cleanly (%q)",
			b.Name, golden.victim.ExitReason)
	}
	rep := Report{
		Benchmark:    b.Name,
		GoldenCycles: golden.exitCycle,
		Verdicts:     make(map[string]int),
	}
	limit := 2*golden.exitCycle + trialSlack
	for i := 0; i < spec.Trials; i++ {
		p := drawPlan(spec, benchIdx, i, golden.exitCycle)
		// Arm after the restore: a checkpoint holds no injector, and the
		// plan's first fire cycle lies at or past the checkpoint's.
		trial, err := c.start(c.golden, p.at)
		if err != nil {
			return Report{}, err
		}
		site := armPlan(trial, p)
		c.finish(trial, limit)
		c.release(trial)
		end, fired := trial.m.Cycles(), trial.firedAt
		if fired == 0 {
			fired = end
		}
		c.ledger.TrialPrefix += fired - trial.base
		c.ledger.TrialSuffix += end - fired
		if trial.restored {
			c.ledger.TrialLead = max(c.ledger.TrialLead, p.at-trial.base)
		}
		verdict, detail := classify(golden, trial)
		rep.Verdicts[verdict]++
		var forensic *Forensic
		if NeedsForensic(verdict) && trial.firedAt > 0 {
			if forensic, err = c.forensicReplay(p, trial.firedAt, limit); err != nil {
				return Report{}, err
			}
		}
		rep.Trials = append(rep.Trials, Trial{
			Trial: i, Kind: p.kind.String(), Site: *site,
			Verdict: verdict, Detail: detail, Forensic: forensic,
		})
	}
	rep.Ledger = c.ledger
	return rep, nil
}
