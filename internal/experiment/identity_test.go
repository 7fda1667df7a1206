package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/image"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

// The identity matrix: every way this repo runs a workload off the straight
// checked interpreter — resumed from a checkpoint, seeked through the
// time-travel ring, run on the fused tier, observed by any subset of the
// observers — must leave the same simulated result as a stepwise run.
// Cases are the seven kernel benchmarks and the lfsr+timer two-task mix.
// Rows come in three families, each run by its own tests: full runs in every
// interpreter mode and under each observer, resumes from a checkpoint, and
// seeks through the ring. A test takes the cases one at a time, builds only
// the fixtures its rows need and drops them before the next case; the
// stepwise references are computed once per test binary and shared. A new
// perturbation is one more row.

const identLimit = 4_000_000_000

// identCase is one workload of the matrix.
type identCase struct {
	name     string
	programs []*image.Program
}

func identCases(t *testing.T) []identCase {
	var cs []identCase
	for _, kb := range progs.KernelBenchmarks() {
		cs = append(cs, identCase{kb.Name, []*image.Program{kb.Program}})
	}
	return append(cs, identCase{"lfsr+timer", tracedWorkload(t)})
}

// observers selects what a row's system has attached.
type observers uint8

const (
	obsTrace observers = 1 << iota
	obsTelemetry
	obsProfile
	obsEnergy
	obsAll = obsTrace | obsTelemetry | obsProfile | obsEnergy
)

// build deploys the case on a fresh system with the chosen observers. Every
// call configures them identically, so snapshots transfer between builds.
func (c identCase) build(obs observers) (*core.System, error) {
	var opts []core.Option
	if obs&obsTrace != 0 {
		opts = append(opts, core.WithTrace(trace.New()))
	}
	if obs&obsTelemetry != 0 {
		opts = append(opts, core.WithTelemetry(telemetry.New(telemetry.Options{Ring: 1 << 14})))
	}
	if obs&obsProfile != 0 {
		opts = append(opts, core.WithProfile(profile.New(profile.Options{StackInterval: 8192})))
	}
	if obs&obsEnergy != 0 {
		opts = append(opts, core.WithEnergy(new(energy.Meter)))
	}
	sys := core.NewSystem(opts...)
	for _, p := range c.programs {
		if _, err := sys.Deploy(p); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// streamNames are the artifact streams identity is asserted over, in the
// order a divergence is reported.
var streamNames = [...]string{"Metrics rendering", "trace encoding", "telemetry NDJSON", "pprof bytes", "energy ledger"}

type digest = [sha256.Size]byte

// outcome is one run reduced to what identity is asserted over: the clocks,
// and SHA-256 digests of the snapshot encoding and of every artifact stream
// the run's observers produce. A zero digest marks a stream the run does not
// carry.
type outcome struct {
	cycles, idle, insts uint64
	snap                digest
	streams             [len(streamNames)]digest
}

// measure reduces sys to its outcome. A run stopped partway (a seek) also
// digests its snapshot encoding, taken first because rendering Metrics
// closes the running task's accounting window. A complete run must have
// written every stream it carries: identity over an empty one proves
// nothing.
func measure(sys *core.System, partial bool) (outcome, error) {
	m := sys.Machine()
	o := outcome{cycles: m.Cycles(), idle: m.IdleCycles(), insts: m.Instructions()}
	if partial {
		st, err := sys.Snapshot()
		if err != nil {
			return o, err
		}
		blob, err := snapshot.Encode(st)
		if err != nil {
			return o, err
		}
		o.snap = sha256.Sum256(blob)
	}
	var write [len(streamNames)]func(io.Writer) error
	write[0] = func(w io.Writer) error {
		_, err := io.WriteString(w, sys.Metrics().Render())
		return err
	}
	if rec := sys.Trace(); rec != nil {
		write[1] = func(w io.Writer) error {
			_, err := rec.WriteTo(w)
			return err
		}
	}
	if tel := sys.Telemetry(); tel != nil {
		write[2] = tel.WriteNDJSON
	}
	if prof := sys.Profile(); prof != nil {
		write[3] = prof.WritePprof
	}
	if meter := sys.Energy(); meter != nil {
		// The ledger both raw (every device counter and open-span cursor)
		// and reduced to joules at the final cycle.
		write[4] = func(w io.Writer) error {
			return json.NewEncoder(w).Encode(struct {
				State     *energy.MeterState
				Breakdown energy.Breakdown
			}{meter.CaptureState(), meter.Report(m.Cycles())})
		}
	}
	for i, fn := range write {
		if fn == nil {
			continue
		}
		h := &digestWriter{Hash: sha256.New()}
		if err := fn(h); err != nil {
			return o, fmt.Errorf("%s: %w", streamNames[i], err)
		}
		if h.n == 0 && !partial {
			return o, fmt.Errorf("%s is empty", streamNames[i])
		}
		h.Sum(o.streams[i][:0])
	}
	return o, nil
}

// digestWriter hashes a stream and counts its bytes.
type digestWriter struct {
	hash.Hash
	n int
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return d.Hash.Write(p)
}

// diff names the first way o departs from want, or "" when it matches on
// everything both carry.
func (o outcome) diff(want outcome) string {
	switch {
	case o.cycles != want.cycles:
		return fmt.Sprintf("cycle %d, want %d", o.cycles, want.cycles)
	case o.idle != want.idle:
		return fmt.Sprintf("idle cycles %d, want %d", o.idle, want.idle)
	case o.insts != want.insts:
		return fmt.Sprintf("%d instructions, want %d", o.insts, want.insts)
	case o.snap != want.snap && o.snap != digest{} && want.snap != digest{}:
		return "snapshot bytes diverge"
	}
	for i, d := range o.streams {
		if w := want.streams[i]; d != w && d != (digest{}) && w != (digest{}) {
			return streamNames[i] + " diverges"
		}
	}
	return ""
}

// boot deploys the case with the chosen observers, switches the machine to
// an interpreter mode, and boots it.
func (c identCase) boot(obs observers, mode string) (*core.System, error) {
	sys, err := c.build(obs)
	if err != nil {
		return nil, err
	}
	modes[mode](sys.Machine())
	return sys, sys.Boot()
}

// modes are the interpreter configurations: the checked per-instruction
// Step path, and the two-tier default run with block translation at
// threshold 1 (every block fuses on its first landing) and at the default
// threshold.
var modes = map[string]func(m *mcu.Machine){
	"stepwise":      func(m *mcu.Machine) { m.SetStepwise(true) },
	"fused-1":       func(m *mcu.Machine) { m.SetTranslation(1) },
	"fused-default": func(m *mcu.Machine) { m.SetTranslation(0) },
}

// stepwise runs a system carrying obs on the checked per-instruction path to
// limit: the reference every row is held against.
func (c identCase) stepwise(obs observers, limit uint64) (*core.System, error) {
	sys, err := c.boot(obs, "stepwise")
	if err != nil {
		return nil, err
	}
	return sys, sys.Run(limit)
}

// identProbe is one cycle the resume and seek rows stop at, with the
// checkpoint a chained run captured there.
type identProbe struct {
	kind  string // "boundary", "midtrap", "rand0".."rand2"
	at    uint64 // nominal arming cycle
	state *snapshot.State
	blob  []byte
}

// probes selects the stopping cycles from the reference run: a sampler-
// cadence boundary near the midpoint, a cycle one past a trap entry (so a
// checkpoint arms inside a kernel service window and fires at the
// instruction boundary after the service), and three pseudo-random cycles
// seeded from the name.
func probes(name string, total uint64, events []trace.Event) []identProbe {
	const cadence = 65536
	pts := []identProbe{{kind: "boundary", at: (total / 2) / cadence * cadence}}

	mid := total / 3 // fallback when no trap window is found
	for i, e := range events {
		if e.Kind != trace.KindTrapEnter || e.Cycle < total/4 {
			continue
		}
		for _, x := range events[i+1:] {
			if x.Kind == trace.KindTrapExit && x.Cycle > e.Cycle+1 {
				mid = e.Cycle + 1
			}
			break
		}
		if mid != total/3 {
			break
		}
	}
	pts = append(pts, identProbe{kind: "midtrap", at: mid})

	h := fnv.New64a()
	h.Write([]byte(name))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	lo, hi := total/10, total*9/10
	for i := 0; i < 3; i++ {
		pts = append(pts, identProbe{kind: fmt.Sprintf("rand%d", i), at: lo + uint64(rng.Int63n(int64(hi-lo)))})
	}

	slices.SortFunc(pts, func(a, b identProbe) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		}
		return 0
	})
	// Duplicate arming cycles would make the chained re-arm fire twice at one
	// boundary; nudge any collision forward.
	for i := 1; i < len(pts); i++ {
		if pts[i].at <= pts[i-1].at {
			pts[i].at = pts[i-1].at + 1
		}
	}
	return pts
}

// memos holds what every test of the matrix shares: the stepwise references,
// reduced to clocks and digests, so they are cheap to keep after the fixtures
// they were computed for are dropped.
var memos sync.Map

// memo runs fn once per key per test binary and hands its result to every
// caller.
func memo[T any](key string, fn func() (T, error)) (T, error) {
	once, _ := memos.LoadOrStore(key, sync.OnceValues(fn))
	return once.(func() (T, error))()
}

// identFixture is one case's references and the runs its rows start from.
type identFixture struct {
	identCase
	full   outcome // the stepwise run to completion
	probes []identProbe
	obs    observers            // what the chained run or the recording carries
	parent *core.System         // the chained run: what fork rows fork
	dbg    *timetravel.Debugger // the recorded run seek rows replay from

	ringSeeks, bootSeeks atomic.Int32 // where the seek rows replayed from
}

// fixture returns a fresh fixture for the case. Its stepwise reference (the
// run to completion, and the probes picked from its trace) is computed once
// per test binary.
func (c identCase) fixture() (*identFixture, error) {
	type reference struct {
		full   outcome
		probes []identProbe
	}
	ref, err := memo("ref "+c.name, func() (reference, error) {
		sys, err := c.stepwise(obsAll, identLimit)
		if err != nil {
			return reference{}, err
		}
		if !sys.Done() {
			return reference{}, fmt.Errorf("%d-cycle limit hit before completion", uint64(identLimit))
		}
		full, err := measure(sys, false)
		if err != nil {
			return reference{}, err
		}
		return reference{full, probes(c.name, full.cycles, sys.Trace().Events())}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &identFixture{identCase: c, full: ref.full, probes: slices.Clone(ref.probes)}, nil
}

// chain runs the case once under obs with every probe armed as a
// checkpoint, each callback arming the next, so one execution captures them
// all; the resume rows then restore into systems carrying obs. Arming must
// not perturb the trajectory: the run must still match the reference.
func (f *identFixture) chain(obs observers) error {
	parent, err := f.build(obs)
	if err != nil {
		return err
	}
	var capErr error
	var arm func(i int)
	arm = func(i int) {
		p := &f.probes[i]
		parent.ArmCheckpoint(p.at, func(st *snapshot.State, err error) {
			if err == nil {
				p.blob, err = snapshot.Encode(st)
			}
			if err != nil {
				capErr = fmt.Errorf("checkpoint %s at %d: %w", p.kind, p.at, err)
				return
			}
			p.state = st
			if i+1 < len(f.probes) {
				arm(i + 1)
			}
		})
	}
	arm(0)
	if err := parent.Boot(); err != nil {
		return err
	}
	if err := parent.Run(identLimit); err != nil {
		return err
	}
	if capErr != nil {
		return capErr
	}
	for _, p := range f.probes {
		if p.state == nil {
			return fmt.Errorf("checkpoint %s at cycle %d never fired (run ended at %d)", p.kind, p.at, f.full.cycles)
		}
	}
	got, err := measure(parent, false)
	if err != nil {
		return err
	}
	if d := got.diff(f.full); d != "" {
		return fmt.Errorf("arming checkpoints perturbed the run: %s", d)
	}
	f.parent, f.obs = parent, obs
	return nil
}

// record runs the case under obs and a 4-slot time-travel ring that evicts
// its oldest checkpoint, so probes in the first third of the run fall back
// to a replay from boot and later ones restore from the ring. Arming the
// ring must not perturb the run.
func (f *identFixture) record(obs observers) error {
	d, err := timetravel.New(func() (*core.System, error) { return f.build(obs) },
		timetravel.Config{Checkpoints: 4, Every: f.full.cycles / 6})
	if err == nil {
		err = d.Record(identLimit)
	}
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	got, err := measure(d.Recorded(), false)
	if err != nil {
		return err
	}
	if d := got.diff(f.full); d != "" {
		return fmt.Errorf("arming the checkpoint ring perturbed the run: %s", d)
	}
	f.dbg, f.obs = d, obs
	return nil
}

// resume restores p into a system carrying the chained run's observers and
// runs it to completion. Variant "fork" restores the in-memory state into a
// fork of the chained run, which shares its image copy-on-write; "bytes"
// decodes the wire blob and restores into a fresh build over a privately
// loaded image — the path a -restore from disk takes.
func (f *identFixture) resume(p *identProbe, variant string) (*core.System, error) {
	var child *core.System
	var err error
	st := p.state
	if variant == "fork" {
		child, err = f.parent.Fork()
	} else if child, err = f.build(f.obs); err == nil {
		st, err = snapshot.Decode(p.blob)
	}
	if err != nil {
		return nil, err
	}
	if err := child.Restore(st); err != nil {
		return nil, err
	}
	return child, child.Run(identLimit)
}

// fullRuns are the rows that boot the case and run it to completion in one
// interpreter mode under one set of observers: the three modes under the
// energy meter, stepwise against the default under a trace recorder, a
// profiler and a telemetry sampler (and threshold 1 under the sampler too),
// and a plain run with nothing attached. Every row matches the stepwise
// reference on the clocks; a row's streams match the first row under the
// same observers, a stepwise run, since each stream also reports on its
// neighbours (Metrics counts trace events, samples carry joules). fuses
// marks rows that must dispatch fused blocks, or the fused tier went
// unexercised.
var fullRuns = []struct {
	mode  string
	obs   observers
	fuses bool
}{
	{"stepwise", obsEnergy, false},
	{"fused-1", obsEnergy, true},
	{"fused-default", obsEnergy, true},
	{"stepwise", obsTrace, false},
	{"fused-default", obsTrace, true},
	{"stepwise", obsProfile, false},
	{"fused-default", obsProfile, false},
	{"stepwise", obsTelemetry, false},
	{"fused-default", obsTelemetry, true},
	{"fused-1", obsTelemetry, true},
	{"fused-default", 0, true},
}

// obsNames names the observer bits, lowest first.
var obsNames = [...]string{"trace", "telemetry", "profiler", "energy"}

// identRow is one cell of the matrix: run produces an outcome to hold
// against want.
type identRow struct {
	name string
	want func() (outcome, error)
	run  func() (outcome, error)
}

// modeRows lays out the fullRuns rows of the case.
func (f *identFixture) modeRows() []identRow {
	clocks := func() (outcome, error) {
		return outcome{cycles: f.full.cycles, idle: f.full.idle, insts: f.full.insts}, nil
	}
	var rows []identRow
	firsts := map[observers]func() (outcome, error){}
	for _, r := range fullRuns {
		name := r.mode
		for i, n := range obsNames {
			if r.obs&(1<<i) != 0 {
				name += "+" + n
			}
		}
		if r.obs == 0 {
			name += "+plain"
		}
		run := sync.OnceValues(func() (outcome, error) {
			sys, err := f.boot(r.obs, r.mode)
			if err == nil {
				err = sys.Run(identLimit)
			}
			if err != nil {
				return outcome{}, err
			}
			if st := sys.Machine().TranslationStats(); r.fuses && st.FusedDispatches == 0 {
				return outcome{}, fmt.Errorf("dispatched no fused blocks: %+v", st)
			}
			return measure(sys, false)
		})
		want, ok := firsts[r.obs]
		if !ok {
			firsts[r.obs], want = run, clocks
		}
		rows = append(rows, identRow{name: name, want: want, run: run})
	}
	return rows
}

// resumeRows restores the chained run's checkpoint at every probe through
// variant and holds the resumed run against the stepwise run to completion.
// Without a profiler, which keeps every instruction on Step, the resumed run
// must dispatch fused blocks: that is the path that resumes the restored
// hook schedule on the fused tier.
func (f *identFixture) resumeRows(variant string) []identRow {
	name := variant
	if f.obs != obsAll {
		name += "-unprofiled"
	}
	var rows []identRow
	for i := range f.probes {
		p := &f.probes[i]
		rows = append(rows, identRow{
			name: fmt.Sprintf("resume/%s at %s (cycle %d)", name, p.kind, p.at),
			want: func() (outcome, error) { return f.full, nil },
			run: func() (outcome, error) {
				sys, err := f.resume(p, variant)
				if err != nil {
					return outcome{}, err
				}
				if st := sys.Machine().TranslationStats(); f.obs&obsProfile == 0 && st.FusedDispatches == 0 {
					return outcome{}, fmt.Errorf("resumed run dispatched no fused blocks: %+v", st)
				}
				return measure(sys, false)
			},
		})
	}
	return rows
}

// seekRows seeks the recorded run to every probe — variant "ring" restores
// the ring's in-memory state, "bytes" its wire bytes — and holds the landed
// system against a stepwise Run(cycle) stopped there under the recording's
// observers. That reference is computed once per probe and observer set per
// test binary, whichever variant gets there first. Without a profiler,
// which keeps every instruction on Step, the replay must dispatch fused
// blocks: seeks replay on the default two-tier interpreter.
func (f *identFixture) seekRows(variant string) []identRow {
	seek, name, obs := f.dbg.Seek, variant, f.obs
	if variant == "bytes" {
		seek = f.dbg.SeekBytes
	}
	if obs != obsAll {
		name += "-unprofiled"
	}
	var rows []identRow
	for _, p := range f.probes {
		rows = append(rows, identRow{
			name: fmt.Sprintf("seek/%s at %s (cycle %d)", name, p.kind, p.at),
			want: func() (outcome, error) {
				return memo(fmt.Sprintf("seek %s@%d obs %d", f.name, p.at, obs), func() (outcome, error) {
					sys, err := f.stepwise(obs, p.at)
					if err != nil {
						return outcome{}, err
					}
					return measure(sys, true)
				})
			},
			run: func() (outcome, error) {
				insp, err := seek(p.at)
				if err != nil {
					return outcome{}, err
				}
				if _, fromRing := insp.Base(); fromRing {
					f.ringSeeks.Add(1)
				} else {
					f.bootSeeks.Add(1)
				}
				sys := insp.System()
				if st := sys.Machine().TranslationStats(); obs&obsProfile == 0 && st.FusedDispatches == 0 {
					return outcome{}, fmt.Errorf("seek replay dispatched no fused blocks: %+v", st)
				}
				return measure(sys, true)
			},
		})
	}
	return rows
}

// eachCase runs check on every case as a subtest, one case at a time, each
// on a fresh fixture that is dropped before the next case starts.
func eachCase(t *testing.T, cs []identCase, check func(t *testing.T, f *identFixture)) {
	// A case holds its fixtures and up to eight fully observed runs at once.
	// Collecting at half the default heap growth bounds the peak heap, and
	// with it the race detector's shadow memory: on a 2-vCPU / 8 GB host the
	// am cases of all six tests peak at 2.9 GiB under -race at the default,
	// 2.1 GiB at 50.
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	for _, c := range cs {
		t.Run(c.name, func(t *testing.T) {
			f, err := c.fixture()
			if err != nil {
				t.Fatal(err)
			}
			check(t, f)
		})
	}
}

// runRows runs rows on up to workers goroutines (one runs them in order) and
// fails t once for every row that departs from its reference, naming it.
func runRows(t *testing.T, workers int, rows []identRow) {
	t.Helper()
	diffs, err := runPoints(workers, len(rows), func(i int) (string, error) {
		r := rows[i]
		got, err := r.run()
		if err != nil {
			return "", fmt.Errorf("%s: %w", r.name, err)
		}
		want, err := r.want()
		if err != nil {
			return "", fmt.Errorf("%s: reference: %w", r.name, err)
		}
		return got.diff(want), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d != "" {
			t.Errorf("%s: %s", rows[i].name, d)
		}
	}
}

// TestTranslatedSuiteIdentity runs the full-run rows on the seven kernel
// benchmarks: every interpreter mode and every observer alone must simulate
// the stepwise run's cycles, idle cycles and instructions, with streams
// byte-identical between a stepwise and a default run under the same
// observer. The rows marked fuses must dispatch fused blocks, or the mode
// proves nothing.
func TestTranslatedSuiteIdentity(t *testing.T) {
	cs := identCases(t)
	eachCase(t, cs[:len(cs)-1], func(t *testing.T, f *identFixture) { runRows(t, 8, f.modeRows()) })
}

// TestTranslationObserverByteIdentity runs the same rows on the lfsr+timer
// two-task mix, whose observer streams also record task switches: an
// observed run on the fused tier must write the stepwise run's streams.
func TestTranslationObserverByteIdentity(t *testing.T) {
	cs := identCases(t)
	eachCase(t, cs[len(cs)-1:], func(t *testing.T, f *identFixture) { runRows(t, 8, f.modeRows()) })
}

// resumeIdentity checks every case's resume rows through variant on workers
// goroutines, after the chained run that captures the probes has matched the
// reference: one chain per observer set in obs, each resumed into systems
// carrying the same observers.
func resumeIdentity(t *testing.T, workers int, variant string, obs ...observers) {
	eachCase(t, identCases(t), func(t *testing.T, f *identFixture) {
		for _, o := range obs {
			if err := f.chain(o); err != nil {
				t.Fatal(err)
			}
			runRows(t, workers, f.resumeRows(variant))
		}
	})
}

// TestResumeIdentitySerial restores every case at its five probes from the
// snapshot wire bytes, one restore at a time; each resumed run must finish
// byte-identical to the uninterrupted stepwise run.
func TestResumeIdentitySerial(t *testing.T) { resumeIdentity(t, 1, "bytes", obsAll) }

// TestResumeIdentityPooled restores the same probes in process, every child a
// fork of the chained run sharing its image copy-on-write, eight at a time —
// the warm-checkpoint fan-out shape — so under -race the forks, the shared
// image and the restore paths are checked for races. A second chain without the profiler
// resumes its probes on the fused tier.
func TestResumeIdentityPooled(t *testing.T) {
	resumeIdentity(t, 8, "fork", obsAll, obsAll&^obsProfile)
}

// seekIdentity checks every case's seek rows through variant on workers
// goroutines, after the ring recording has matched the reference: one
// recording per observer set in obs. The probes must land both on ring
// restores and on boot fallbacks.
func seekIdentity(t *testing.T, workers int, variant string, obs ...observers) {
	eachCase(t, identCases(t), func(t *testing.T, f *identFixture) {
		for _, o := range obs {
			if err := f.record(o); err != nil {
				t.Fatal(err)
			}
			runRows(t, workers, f.seekRows(variant))
		}
		if f.ringSeeks.Load() == 0 || f.bootSeeks.Load() == 0 {
			t.Errorf("%d seeks restored from the ring and %d fell back to boot; want both kinds",
				f.ringSeeks.Load(), f.bootSeeks.Load())
		}
	})
}

// TestSeekIdentitySerial seeks every case to its five probes from the ring's
// wire bytes, one seek at a time; the landed system's snapshot bytes and
// streams must match a straight stepwise run to the same cycle.
func TestSeekIdentitySerial(t *testing.T) { seekIdentity(t, 1, "bytes", obsAll) }

// TestSeekIdentityPooled seeks the same probes from the ring's in-memory
// states, eight at a time out of one shared debugger; under -race this pins
// concurrent seeks (forks of the recorded system and copy-on-write image
// adoption included) as race-free. A second recording without the profiler
// replays its seeks on fused blocks.
func TestSeekIdentityPooled(t *testing.T) {
	seekIdentity(t, 8, "ring", obsAll, obsAll&^obsProfile)
}

// TestRestoreDoesNotAliasSnapshot scribbles over every mutable buffer of a
// snapshot after restoring from it; the restored run must be unaffected.
// Catches restored systems keeping references into snapshot slices (device
// output buffers, sampler rings, trace events, task registers).
func TestRestoreDoesNotAliasSnapshot(t *testing.T) {
	f, err := identCases(t)[0].fixture()
	if err == nil {
		err = f.chain(obsAll)
	}
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(f.probes[len(f.probes)/2].blob)
	if err != nil {
		t.Fatal(err)
	}
	child, err := f.build(obsAll)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Restore(st); err != nil {
		t.Fatal(err)
	}

	// Deface everything reachable through the decoded state.
	for i := range st.Machine.Data {
		st.Machine.Data[i] ^= 0xA5
	}
	for i := range st.Machine.Dev.UARTOut {
		st.Machine.Dev.UARTOut[i] ^= 0xA5
	}
	for i := range st.Machine.Dev.RadioOut {
		st.Machine.Dev.RadioOut[i].Byte ^= 0xA5
		st.Machine.Dev.RadioOut[i].Cycle ^= 0xFFFF
	}
	for i := range st.Machine.Dev.RadioIn {
		st.Machine.Dev.RadioIn[i] ^= 0xA5
	}
	for i := range st.Kernel.Tasks {
		tk := &st.Kernel.Tasks[i]
		for j := range tk.Regs {
			tk.Regs[j] ^= 0xA5
		}
		tk.PC ^= 0xFFFF
		tk.ServiceCalls[0] ^= 0xFFFF
	}
	for i := range st.Trace.Events {
		st.Trace.Events[i].Cycle ^= 0xFFFF
		st.Trace.Events[i].Detail = "scribbled"
	}
	for i := range st.Telemetry.Samples {
		s := &st.Telemetry.Samples[i]
		s.Cycle ^= 0xFFFF
		for j := range s.Tasks {
			s.Tasks[j].RunCycles ^= 0xFFFF
		}
	}
	for i := range st.Telemetry.TaskNames {
		st.Telemetry.TaskNames[i] = "scribbled"
	}
	st.Energy.SleepCycles ^= 0xFFFF
	st.Energy.RadioCycles ^= 0xFFFF
	st.Energy.UARTBytes ^= 0xFFFF
	st.Energy.TimerSince ^= 0xFFFF
	st.Energy.TimerOn = !st.Energy.TimerOn
	for i := range st.Profile.Tasks {
		tp := &st.Profile.Tasks[i]
		for j := range tp.PCs {
			tp.PCs[j].Cycles ^= 0xFFFF
		}
		for j := range tp.Ring {
			tp.Ring[j].Used ^= 0xFFFF
		}
	}

	if err := child.Run(identLimit); err != nil {
		t.Fatal(err)
	}
	got, err := measure(child, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.diff(f.full); d != "" {
		t.Errorf("scribbling the snapshot after restore changed the run: %s", d)
	}
}

// TestConcurrentAdoptRestore fans eight children out of one parent at once:
// every child is a fork of the parent adopting its image copy-on-write,
// restores the same in-memory snapshot, and runs to completion on its own
// goroutine. All eight must match the reference; under -race this pins
// concurrent forks and the shared-image fan-out as race-free.
func TestConcurrentAdoptRestore(t *testing.T) {
	cs := identCases(t)
	f, err := cs[len(cs)-2].fixture() // the last kernel benchmark
	if err == nil {
		err = f.chain(obsAll)
	}
	if err != nil {
		t.Fatal(err)
	}
	diffs, err := runPoints(8, 8, func(int) (string, error) {
		sys, err := f.resume(&f.probes[0], "fork")
		if err != nil {
			return "", err
		}
		got, err := measure(sys, false)
		return got.diff(f.full), err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range diffs {
		if d != "" {
			t.Errorf("child %d: %s", i, d)
		}
	}
}

// TestSeekFirstAgainstLinearScan pins SeekFirst's bisection on a real
// workload: the first cycle at which the benchmark's UART transcript reaches
// half its final length, verified against an exhaustive boundary-by-boundary
// scan of a straight checked run.
func TestSeekFirstAgainstLinearScan(t *testing.T) {
	f, err := identCases(t)[0].fixture()
	if err == nil {
		err = f.record(obsAll)
	}
	if err != nil {
		t.Fatal(err)
	}
	total := len(f.dbg.Recorded().Machine().UARTOutput())
	if total < 2 {
		t.Skipf("%s transmitted %d UART bytes; need at least 2", f.name, total)
	}
	target := total / 2

	insp, err := f.dbg.SeekFirst(func(in *timetravel.Inspector) bool {
		return len(in.System().Machine().UARTOutput()) >= target
	})
	if err != nil {
		t.Fatal(err)
	}

	ref, err := f.boot(obsAll, "stepwise")
	if err != nil {
		t.Fatal(err)
	}
	rm := ref.Machine()
	for len(rm.UARTOutput()) < target {
		cur := rm.Cycles()
		if err := ref.Run(cur + 1); err != nil {
			t.Fatal(err)
		}
		if rm.Cycles() == cur {
			t.Fatalf("straight run ended before the UART transcript reached %d bytes", target)
		}
	}
	if insp.Cycle() != rm.Cycles() {
		t.Errorf("SeekFirst landed on cycle %d, linear scan says first-true is %d", insp.Cycle(), rm.Cycles())
	}
}
