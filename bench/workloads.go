package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/baseline/tkernel"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
	"repro/internal/snapshot"
	"repro/internal/timetravel"
)

// workload is one seeded job mix. prepare is the workload's set-up: it
// generates the job list (and, for seek, records the run every job seeks
// into) and returns a suite whose run executes one job by index.
type workload struct {
	name    string
	jobs    int // job-list length; a run cycles through the list
	prepare func(t *tracer, seed uint64, n int) (*suite, error)
}

// suite is a prepared workload. specs holds one canonical line per job; it
// is what provenance hashes and what the determinism tests compare. run
// executes job i, checks its outputs, and returns the job's simulated
// results as one line for the golden files.
type suite struct {
	specs []string
	run   func(t *tracer, i int) (string, error)
}

var workloads = []workload{
	{"fig5", 800, prepareFig5},
	{"fig7", 1200, prepareFig7},
	{"campaign", 1500, prepareCampaign},
	{"seek", 6000, prepareSeek},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// ---- fig5: one Figure 5 row per job ----

// fig5Benches are the seven kernel benchmarks with the paper-sized workload
// parameters progs.KernelBenchmarks uses.
var fig5Benches = []struct {
	name  string
	paper int
	build func(int) *image.Program
}{
	{"am", 40, progs.AM},
	{"amplitude", 400, progs.Amplitude},
	{"crc", 120, progs.CRC},
	{"eventchain", 600, progs.EventChain},
	{"lfsr", 30000, progs.LFSR},
	{"readadc", 400, progs.ReadADC},
	{"timer", 40, progs.Timer},
}

type fig5Job struct {
	bench, size int
}

// fig5Strata is how many equal slices of the 0.5-1.5x size range one block
// of the fig5 job list draws each benchmark's sizes from.
const fig5Strata = 8

// fig5Jobs draws the benchmarks in shuffled rounds of all seven, and each
// size from 0.5-1.5x the paper size, stratified: in every block of
// fig5Strata rounds a benchmark gets one size from each slice of that range.
// Every prefix of the list then has nearly the same mix of benchmarks and
// sizes, whatever the seed.
func fig5Jobs(seed uint64, n int) []fig5Job {
	r := rand.New(rand.NewPCG(seed, 5))
	jobs := make([]fig5Job, 0, n+fig5Strata*len(fig5Benches))
	for len(jobs) < n {
		strata := make([][]int, len(fig5Benches))
		for b := range strata {
			strata[b] = r.Perm(fig5Strata)
		}
		for round := 0; round < fig5Strata; round++ {
			for _, b := range r.Perm(len(fig5Benches)) {
				scale := 0.5 + (float64(strata[b][round])+r.Float64())/fig5Strata
				jobs = append(jobs, fig5Job{b, max(int(float64(fig5Benches[b].paper)*scale), 1)})
			}
		}
	}
	return jobs[:n]
}

func prepareFig5(_ *tracer, seed uint64, n int) (*suite, error) {
	jobs := fig5Jobs(seed, n)
	s := &suite{run: func(t *tracer, i int) (string, error) { return runFig5(t, jobs[i]) }}
	for _, j := range jobs {
		s.specs = append(s.specs, fmt.Sprintf("%s %d", fig5Benches[j.bench].name, j.size))
	}
	return s, nil
}

// Cycle limits of the Figure 5 harness (internal/experiment): far above any
// job here, so hitting one is a failure.
const (
	nativeLimit = 2_000_000_000
	kernelLimit = 4_000_000_000
)

// runFig5 runs one benchmark natively, under SenSmart and under the
// t-kernel, each on a machine of its own, and checks that all three finish
// with the same non-empty UART transcript.
func runFig5(t *tracer, j fig5Job) (string, error) {
	b := fig5Benches[j.bench]
	t.begin("asm")
	prog := b.build(j.size)
	t.end()

	t.begin("mcu.new")
	nm := mcu.New()
	t.end()
	t.begin("mcu.load")
	err := nm.LoadFlash(0, prog.Words)
	progs.LoadData(nm, prog)
	nm.SetPC(prog.Entry)
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("mcu.run")
	err = nm.Run(nativeLimit)
	t.end()
	var f *mcu.Fault
	if !errors.As(err, &f) || f.Kind != mcu.FaultBreak {
		return "", fmt.Errorf("native %s did not reach BREAK: %v", prog.Name, err)
	}
	t.countMachine(nm)

	t.begin("rewriter")
	nat, err := rewriter.Rewrite(prog, rewriter.Config{})
	t.end()
	if err != nil {
		return "", err
	}
	km, k := newKernel(t, kernel.Config{})
	t.begin("kernel.add_task")
	_, err = k.AddTask(b.name, nat)
	t.end()
	if err != nil {
		return "", err
	}
	if err := bootRun(t, k, kernelLimit); err != nil {
		return "", err
	}
	if !k.Done() {
		return "", fmt.Errorf("SenSmart %s did not finish", prog.Name)
	}
	t.countMachine(km)
	t.countKernel(k)

	t.begin("tkernel.naturalize")
	img, err := tkernel.Naturalize(prog)
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("mcu.new")
	tm := mcu.New()
	t.end()
	t.begin("tkernel.load")
	rt, err := tkernel.NewRuntime(tm, img)
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("tkernel.run")
	err = rt.Run(kernelLimit)
	t.end()
	if err != nil {
		return "", err
	}
	if !rt.Exited() {
		return "", fmt.Errorf("t-kernel %s did not finish", prog.Name)
	}
	t.countMachine(tm)
	t.countTKernel(rt)

	t.begin("bench.check")
	defer t.end()
	uart := nm.UARTOutput()
	if len(uart) == 0 {
		return "", fmt.Errorf("native %s sent no UART output", prog.Name)
	}
	if !bytes.Equal(km.UARTOutput(), uart) || !bytes.Equal(tm.UARTOutput(), uart) {
		return "", fmt.Errorf("%s: UART transcripts differ: native %q, SenSmart %q, t-kernel %q",
			prog.Name, uart, km.UARTOutput(), tm.UARTOutput())
	}
	return fmt.Sprintf("%s %d native=%d/%d sensmart=%d/%d tkernel=%d/%d uart=%x",
		b.name, j.size, nm.Cycles(), nm.Instructions(), km.Cycles(), km.Instructions(),
		tm.Cycles(), tm.Instructions(), sha8(uart)), nil
}

// newKernel builds a machine and a SenSmart kernel on it.
func newKernel(t *tracer, cfg kernel.Config) (*mcu.Machine, *kernel.Kernel) {
	t.begin("mcu.new")
	m := mcu.New()
	t.end()
	t.begin("kernel.new")
	k := kernel.New(m, cfg)
	t.end()
	return m, k
}

// bootRun boots k and runs it to limit.
func bootRun(t *tracer, k *kernel.Kernel, limit uint64) error {
	t.begin("kernel.boot")
	err := k.Boot()
	t.end()
	if err != nil {
		return err
	}
	t.begin("kernel.run")
	err = k.Run(limit)
	t.end()
	return err
}

// ---- fig7: one Figure 7 point per job ----

type fig7Job struct {
	nodes int
	seed  uint16
}

// Figure 7's tree count and deliberately small initial stack (tasks grow by
// relocation), and a budget long enough for relocations and terminations to
// happen on every point.
const (
	fig7Trees        = 6
	fig7InitialStack = 64
	fig7Budget       = 5_000_000
)

// fig7Jobs draws tree sizes in shuffled rounds of every size 8..40, so every
// prefix of the list is balanced across sizes to within one round, each
// with a fresh seed.
func fig7Jobs(seed uint64, n int) []fig7Job {
	r := rand.New(rand.NewPCG(seed, 7))
	jobs := make([]fig7Job, 0, n+33)
	for len(jobs) < n {
		for _, d := range r.Perm(33) {
			jobs = append(jobs, fig7Job{8 + d, uint16(r.Uint32())})
		}
	}
	return jobs[:n]
}

func prepareFig7(_ *tracer, seed uint64, n int) (*suite, error) {
	jobs := fig7Jobs(seed, n)
	s := &suite{run: func(t *tracer, i int) (string, error) { return runFig7(t, jobs[i]) }}
	for _, j := range jobs {
		s.specs = append(s.specs, fmt.Sprintf("%d %#04x", j.nodes, j.seed))
	}
	return s, nil
}

// runFig7 fills one node with tree-search tasks until admission fails, runs
// the budget, and checks that every admitted task either survived or was
// terminated.
func runFig7(t *tracer, j fig7Job) (string, error) {
	m, k := newKernel(t, kernel.Config{InitialStack: fig7InitialStack})
	admitted := 0
	for i := 0; ; i++ {
		t.begin("asm")
		prog, err := progs.TreeSearch(progs.TreeSearchParams{
			Trees: fig7Trees, NodesPerTree: j.nodes, Seed: j.seed + uint16(73*i),
		})
		t.end()
		if err != nil {
			return "", err
		}
		t.begin("rewriter")
		nat, err := rewriter.Rewrite(prog, rewriter.Config{})
		t.end()
		if err != nil {
			return "", err
		}
		t.begin("kernel.add_task")
		_, err = k.AddTask(fmt.Sprintf("search%d", i), nat)
		t.end()
		if errors.Is(err, kernel.ErrNoMemory) {
			if t.record {
				t.c.admitRejects++
			}
			break
		}
		if err != nil {
			return "", err
		}
		admitted++
	}
	if admitted == 0 {
		return "", fmt.Errorf("no task admitted at %d nodes per tree", j.nodes)
	}
	if err := bootRun(t, k, fig7Budget); err != nil {
		return "", err
	}
	t.countMachine(m)
	t.countKernel(k)

	t.begin("bench.check")
	defer t.end()
	survivors := 0
	for _, task := range k.Tasks {
		if task.State() != kernel.TaskTerminated {
			survivors++
		}
	}
	if survivors+k.Stats.Terminations != admitted {
		return "", fmt.Errorf("%d survivors + %d terminations != %d admitted",
			survivors, k.Stats.Terminations, admitted)
	}
	return fmt.Sprintf("%d %#04x admitted=%d survivors=%d relocations=%d/%dB cycles=%d insts=%d",
		j.nodes, j.seed, admitted, survivors, k.Stats.Relocations, k.Stats.RelocatedBytes,
		m.Cycles(), m.Instructions()), nil
}

// ---- campaign: one fault-injection RunBenchmark call per job ----

type campaignJob struct {
	member int
	seed   uint64
}

// campaignTrials is the trial count per RunBenchmark call: short calls, so
// boots, golden runs and forensic replays all weigh in.
const campaignTrials = 2

// campaignJobs draws suite members in shuffled rounds of the whole suite,
// each with a fresh campaign seed.
func campaignJobs(seed uint64, n, members int) []campaignJob {
	r := rand.New(rand.NewPCG(seed, 11))
	jobs := make([]campaignJob, 0, n+members)
	for len(jobs) < n {
		for _, b := range r.Perm(members) {
			jobs = append(jobs, campaignJob{b, r.Uint64()})
		}
	}
	return jobs[:n]
}

func prepareCampaign(_ *tracer, seed uint64, n int) (*suite, error) {
	suiteMembers := faultinject.Benchmarks()
	jobs := campaignJobs(seed, n, len(suiteMembers))
	s := &suite{run: func(t *tracer, i int) (string, error) {
		return runCampaign(t, suiteMembers, jobs[i])
	}}
	for _, j := range jobs {
		s.specs = append(s.specs, fmt.Sprintf("%s %d", suiteMembers[j.member].Name, j.seed))
	}
	return s, nil
}

var knownVerdicts = map[string]bool{
	faultinject.VerdictKernelCompromise:   true,
	faultinject.VerdictCrossTaskBreach:    true,
	faultinject.VerdictContainedFault:     true,
	faultinject.VerdictSilentCorruption:   true,
	faultinject.VerdictContainedRecovered: true,
}

// runCampaign runs one campaign call and checks that every trial has a known
// verdict and that every fired, non-contained trial carries a forensic
// report.
func runCampaign(t *tracer, members []faultinject.Benchmark, j campaignJob) (string, error) {
	b := members[j.member]
	t.begin("faultinject.run")
	rep, err := faultinject.RunBenchmark(b, faultinject.Spec{Seed: j.seed, Trials: campaignTrials}, j.member)
	t.end()
	if err != nil {
		return "", err
	}

	t.begin("bench.check")
	defer t.end()
	if len(rep.Trials) != campaignTrials {
		return "", fmt.Errorf("%s: %d trials, want %d", b.Name, len(rep.Trials), campaignTrials)
	}
	verdicts := make([]string, len(rep.Trials))
	forensics, contained := 0, 0
	for i, tr := range rep.Trials {
		if !knownVerdicts[tr.Verdict] {
			return "", fmt.Errorf("%s trial %d: unknown verdict %q", b.Name, i, tr.Verdict)
		}
		if faultinject.NeedsForensic(tr.Verdict) && tr.Site != "unfired" && tr.Forensic == nil {
			return "", fmt.Errorf("%s trial %d: %s verdict without a forensic report", b.Name, i, tr.Verdict)
		}
		if tr.Forensic != nil {
			forensics++
		}
		if !faultinject.NeedsForensic(tr.Verdict) {
			contained++
		}
		verdicts[i] = tr.Verdict
	}
	if t.record {
		t.c.trials += len(rep.Trials)
		t.c.forensics += forensics
		t.c.contained += contained
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d golden=%d verdicts=%s forensics=%d report=%x",
		b.Name, j.seed, rep.GoldenCycles, strings.Join(verdicts, ","), forensics, sha8(blob)), nil
}

// ---- seek: time-travel seeks and snapshot saves into one recording ----

// The recording: all seven kernel benchmarks as one multitask run, with a
// ring large enough to hold a checkpoint every 2^19 cycles of it.
const (
	seekCheckpoints = 32
	seekEvery       = 1 << 19
)

// Seek job kinds: a Seek from the in-memory ring, a SeekBytes from the
// ring's wire bytes, and a save of the last landed system.
const (
	opSeek      = 's'
	opSeekBytes = 'b'
	opSave      = 'v'
)

type seekJob struct {
	op    byte
	cycle uint64 // requested cycle; unused by saves
}

// seekJobs draws the ops in shuffled rounds of 9 seeks, 9 byte seeks and 2
// saves (45/45/10), each seek to a uniform cycle of the recording. A save
// needs a landed system, so the list never starts with one.
func seekJobs(seed uint64, n int, end uint64) []seekJob {
	r := rand.New(rand.NewPCG(seed, 13))
	round := []byte(strings.Repeat(string(opSeek), 9) + strings.Repeat(string(opSeekBytes), 9) +
		strings.Repeat(string(opSave), 2))
	jobs := make([]seekJob, 0, n+len(round))
	for len(jobs) < n {
		for _, k := range r.Perm(len(round)) {
			j := seekJob{op: round[k]}
			if j.op != opSave {
				j.cycle = r.Uint64N(end + 1)
			}
			jobs = append(jobs, j)
		}
	}
	jobs = jobs[:n]
	for i, j := range jobs {
		if j.op != opSave {
			jobs[0], jobs[i] = jobs[i], jobs[0]
			break
		}
	}
	return jobs
}

// recordSeek records the seven kernel benchmarks as one run under a
// checkpoint ring. Every replay rebuilds the system through the same
// factory, so its construction shows under core.build in each seek.
func recordSeek(t *tracer) (*timetravel.Debugger, error) {
	kbs := progs.KernelBenchmarks()
	build := func() (*core.System, error) {
		t.begin("core.build")
		defer t.end()
		t.begin("mcu.new")
		sys := core.NewSystem()
		t.end()
		for _, kb := range kbs {
			t.begin("rewriter")
			_, err := sys.Naturalize(kb.Program)
			t.end()
			if err != nil {
				return nil, err
			}
			t.begin("kernel.add_task")
			_, err = sys.Deploy(kb.Program)
			t.end()
			if err != nil {
				return nil, err
			}
		}
		return sys, nil
	}
	d, err := timetravel.New(build, timetravel.Config{Checkpoints: seekCheckpoints, Every: seekEvery})
	if err != nil {
		return nil, err
	}
	if err := d.Record(0); err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	return d, nil
}

func prepareSeek(t *tracer, seed uint64, n int) (*suite, error) {
	d, err := recordSeek(t)
	if err != nil {
		return nil, err
	}
	jobs := seekJobs(seed, n, d.End())
	var last *timetravel.Inspector
	s := &suite{run: func(t *tracer, i int) (string, error) {
		j := jobs[i]
		if j.op == opSave {
			return runSave(t, last)
		}
		insp, line, err := runSeek(t, d, j)
		last = insp
		return line, err
	}}
	for _, j := range jobs {
		s.specs = append(s.specs, fmt.Sprintf("%c %d", j.op, j.cycle))
	}
	return s, nil
}

// runSeek seeks the recording and checks that it landed at or past the
// requested cycle.
func runSeek(t *tracer, d *timetravel.Debugger, j seekJob) (*timetravel.Inspector, string, error) {
	seek := d.Seek
	if j.op == opSeekBytes {
		seek = d.SeekBytes
	}
	t.begin("timetravel.seek")
	insp, err := seek(j.cycle)
	t.end()
	if err != nil {
		return nil, "", err
	}
	if t.record {
		base, fromRing := insp.Base()
		t.c.seeks++
		t.c.replayCycles += insp.Cycle() - base
		if fromRing {
			t.c.ringHits++
		}
	}

	t.begin("bench.check")
	defer t.end()
	if insp.Cycle() < j.cycle {
		return nil, "", fmt.Errorf("seek to %d landed early, at %d", j.cycle, insp.Cycle())
	}
	return insp, fmt.Sprintf("%c %d %d %x", j.op, j.cycle, insp.Cycle(), landedHash(insp)), nil
}

// landedHash digests the landed CPU state and all of data memory.
func landedHash(in *timetravel.Inspector) []byte {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], in.Cycle())
	binary.LittleEndian.PutUint32(hdr[8:], in.PC())
	binary.LittleEndian.PutUint16(hdr[12:], in.SP())
	hdr[14] = in.SREG()
	h.Write(hdr[:])
	regs := in.Registers()
	h.Write(regs[:])
	h.Write(in.Mem(0, mcu.DataSize))
	return h.Sum(nil)[:8]
}

// runSave snapshots the last landed system, encodes and decodes it, and
// checks that re-encoding the decoded state gives the same bytes.
func runSave(t *tracer, last *timetravel.Inspector) (string, error) {
	if last == nil {
		return "", errors.New("save before any seek landed")
	}
	t.begin("snapshot.capture")
	st, err := last.System().Snapshot()
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("snapshot.encode")
	blob, err := snapshot.Encode(st)
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("snapshot.decode")
	back, err := snapshot.Decode(blob)
	t.end()
	if err != nil {
		return "", err
	}
	t.begin("snapshot.encode")
	again, err := snapshot.Encode(back)
	t.end()
	if err != nil {
		return "", err
	}
	if t.record {
		t.c.saves++
		t.c.snapshotBytes += len(blob)
	}

	t.begin("bench.check")
	defer t.end()
	if !bytes.Equal(again, blob) {
		return "", errors.New("snapshot does not round-trip byte-equal")
	}
	return fmt.Sprintf("%c %d %d %x", opSave, last.Cycle(), len(blob), sha8(blob)), nil
}

func sha8(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:8]
}
