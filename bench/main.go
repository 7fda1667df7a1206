// Command sensmart-bench is the repository's host-performance benchmark. It
// measures what the simulator costs to run per real job — a Figure 5 row, a
// Figure 7 point, a fault-campaign call, a time-travel seek — and splits that
// cost across the simulator's layers. Simulated cycles are the paper's
// result; here they only serve as the correctness check against the golden
// files.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fig5 --seed 1 --seconds 20 --trace 0
//
// One process runs one workload as a closed loop with a single client: the
// next job starts when the last one returns, cycling through a seeded job
// list for --seconds. With --trace 0 the last line of standard output is a
// JSON object with the end-to-end metrics; with --trace 1 the first half of
// the window runs untraced, the second half records spans, and the object
// holds the per-layer metrics. See README.md for the metric definitions.
package main

import (
	"crypto/sha256"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Set-up is repeated setupReps times and its median reported, so one slow
// repetition does not move setup_s. Each repetition ends with warmupJobs
// untimed jobs, which fill caches and finish lazy set-up before timing.
const (
	setupReps  = 9
	warmupJobs = 10
)

//go:embed golden/*.txt
var goldenFS embed.FS

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sensmart-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("sensmart-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: fig5, fig7, campaign or seek")
	seed := fl.Uint64("seed", 1, "seed of the generated job list")
	seconds := fl.Int("seconds", 20, "length of the measured window in seconds")
	traced := fl.Int("trace", 0, "1 = report per-layer metrics from a traced half-window")
	traceOut := fl.String("trace-out", "", "Chrome trace_event JSON of the traced spans (default .bench_build/trace-<workload>.json)")
	cpuProfile := fl.String("cpuprofile", "", "write a CPU profile of the measured windows, labelled layer=<span>")
	writeGolden := fl.String("write-golden", "", "run every job once and write the result lines to this file, then exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}

	tr := newTracer(false, *cpuProfile != "")
	s, setupS, err := setUp(w, tr, *seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if *writeGolden != "" {
		return writeGoldenFile(*writeGolden, s, tr)
	}
	golden, err := loadGolden(w.name, *seed, len(s.specs))
	if err != nil {
		return err
	}
	if err := printProvenance(stdout, w.name, *seed, s.specs, golden != nil); err != nil {
		return err
	}

	stopProfile := func() error { return nil }
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close() // for error returns; the success path closes and checks below
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
		stopProfile = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}

	window := time.Duration(*seconds) * time.Second
	var metrics []metric
	var attempted, failed int
	if *traced == 0 {
		r := measure(s, tr, golden, window, stderr)
		attempted, failed = r.attempted, r.failed
		metrics = []metric{
			{"jobs_per_s", r.jobsPerS(), "1/s"},
			{"job_ms.p50", percentile(r.jobMs, 0.50), "ms"},
			{"job_ms.p90", percentile(r.jobMs, 0.90), "ms"},
			{"alloc_mb_per_job", float64(r.rt.allocBytes) / 1e6 / float64(r.attempted), "MB"},
			{"setup_s", setupS / r.hostFactor, "s"},
		}
		fmt.Fprintf(stdout, "job_ms: %d samples, p99 %.4f ms (diagnostic)\n", len(r.jobMs), percentile(r.jobMs, 0.99))
		fmt.Fprintf(stdout, "host factor %.4f; unscaled: %.3f jobs/s, job_ms p50 %.4f p90 %.4f, setup %.4f s\n",
			r.hostFactor, throughput(r.rawMs), percentile(r.rawMs, 0.5), percentile(r.rawMs, 0.9), setupS)
	} else {
		u := measure(s, tr, golden, window/2, stderr)
		tr.record = true
		tr.epoch = time.Now()
		tc := measure(s, tr, golden, window/2, stderr)
		tr.record = false
		attempted, failed = u.attempted+tc.attempted, u.failed+tc.failed
		overhead := 1 - tc.jobsPerS()/u.jobsPerS()
		coverage := layerCoverage(tr.spans)
		fmt.Fprintf(stdout, "tracing: untraced %.2f jobs/s, traced %.2f jobs/s (at nominal host speed), overhead %.1f%%\n",
			u.jobsPerS(), tc.jobsPerS(), 100*overhead)
		printSelfTimes(stdout, tr.spans, coverage)
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := writeChrome(path, tr.spans); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(tr.spans), path)
		metrics = layerMetrics(tr.spans, tr.c, tc.attempted, tc.rt, coverage, overhead, tc.hostFactor)
	}
	if err := stopProfile(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return printResult(stdout, attempted, failed, metrics)
}

// setUp prepares the workload setupReps times and returns the last suite and
// the median set-up time. Each repetition generates the job list (and, for
// seek, records the run) and then runs the warm-up jobs.
func setUp(w workload, tr *tracer, seed uint64) (*suite, float64, error) {
	var s *suite
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		var err error
		if s, err = w.prepare(tr, seed, w.jobs); err != nil {
			return nil, 0, err
		}
		for i := 0; i < warmupJobs; i++ {
			if _, err := s.run(tr, i%len(s.specs)); err != nil {
				return nil, 0, fmt.Errorf("warm-up job %d: %w", i, err)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return s, percentile(times, 0.5), nil
}

// result is one measured window. Job times exclude the reference loop.
type result struct {
	attempted, failed int
	jobMs             []float64 // at nominal host speed, ascending
	rawMs             []float64 // as timed, ascending
	hostFactor        float64   // the window's reference median over refNominalMs
	rt                runtimeUse
}

// jobsPerS is the closed loop's throughput at nominal host speed.
func (r result) jobsPerS() float64 { return throughput(r.jobMs) }

func throughput(jobMs []float64) float64 {
	var sum float64
	for _, v := range jobMs {
		sum += v
	}
	return float64(len(jobMs)) / (sum / 1e3)
}

// measure runs jobs back to back, cycling through the job list, until the
// window has elapsed, timing the host reference loop after each job. A job
// fails when it returns an error or, where a golden file exists, when its
// result line differs from the golden one.
func measure(s *suite, tr *tracer, golden []string, window time.Duration, stderr io.Writer) result {
	var r result
	var refMs []float64
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		j := i % len(s.specs)
		tr.job = i
		t0 := time.Now()
		tr.begin(jobSpan)
		line, err := s.run(tr, j)
		tr.end()
		t1 := time.Now()
		refSink += hostRef()
		refMs = append(refMs, ms(time.Since(t1)))
		r.rawMs = append(r.rawMs, ms(t1.Sub(t0)))
		r.attempted++
		if err == nil && golden != nil && line != golden[j] {
			err = fmt.Errorf("result %q differs from golden %q", line, golden[j])
		}
		if err != nil {
			r.failed++
			if r.failed <= 5 {
				fmt.Fprintf(stderr, "job %d (%s): %v\n", j, s.specs[j], err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	r.jobMs = scaleToNominal(r.rawMs, refMs)
	sort.Float64s(r.jobMs)
	sort.Float64s(r.rawMs)
	sort.Float64s(refMs)
	r.hostFactor = percentile(refMs, 0.5) / refNominalMs
	r.rt = runtimeUse{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		peakRSSMB:  peakRSSMB(),
	}
	return r
}

// peakRSSMB is the process's peak resident set (getrusage reports it in KiB
// on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// loadGolden returns the golden result lines for this workload and seed, or
// nil when none are committed for the seed.
func loadGolden(workload string, seed uint64, jobs int) ([]string, error) {
	data, err := goldenFS.ReadFile(fmt.Sprintf("golden/%s.seed%d.txt", workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != jobs {
		return nil, fmt.Errorf("golden file for %s seed %d has %d lines, the job list %d",
			workload, seed, len(lines), jobs)
	}
	return lines, nil
}

// writeGoldenFile runs every job of the list once, in order, and writes
// their result lines.
func writeGoldenFile(path string, s *suite, tr *tracer) error {
	var b strings.Builder
	for i := range s.specs {
		line, err := s.run(tr, i)
		if err != nil {
			return fmt.Errorf("job %d (%s): %w", i, s.specs[i], err)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func printProvenance(w io.Writer, workload string, seed uint64, specs []string, golden bool) error {
	sum := sha256.Sum256([]byte(strings.Join(specs, "\n")))
	line, err := json.Marshal(map[string]any{"provenance": map[string]any{
		"workload":      workload,
		"seed":          seed,
		"jobs":          len(specs),
		"jobs_sha256":   fmt.Sprintf("%x", sum),
		"golden":        golden,
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"numcpu":        runtime.NumCPU(),
		"warmup_jobs":   warmupJobs,
		"setup_repeats": setupReps,
	}})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printSelfTimes prints each layer's self time per job and its share of the
// summed job time.
func printSelfTimes(w io.Writer, spans []span, coverage float64) {
	self, total := selfTimes(spans), jobTime(spans)
	fmt.Fprintf(w, "layer self time (share of summed job time; layers cover %.1f%%):\n", 100*coverage)
	for _, name := range append(layerSpans, jobSpan) {
		if d := self[name]; d != 0 {
			fmt.Fprintf(w, "  %-20s %10.1f ms %6.1f%%\n", name, ms(d), 100*ratio(float64(d), float64(total)))
		}
	}
}

// printResult prints every metric with its unit, then the final JSON line.
func printResult(w io.Writer, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(metrics))
	for _, m := range metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
