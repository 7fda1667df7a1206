// Command sensmart-bench regenerates the tables and figures of the paper's
// evaluation (Section V). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
//
// Usage:
//
//	sensmart-bench -exp all
//	sensmart-bench -exp fig6 -activations 300
//	sensmart-bench -exp fig7 -budget 80000000
//	sensmart-bench -exp fig5 -parallel 4
//	sensmart-bench -exp overhead -trace overhead.json -metrics
//	sensmart-bench -exp hotspots -top 5
//	sensmart-bench -exp hotspots -profile hotspots.pb.gz -folded hotspots.folded
//	sensmart-bench -exp faultcampaign -seed 1 -trials 20 -out BENCH_faultcampaign.json
//	sensmart-bench -exp warmstart -prefix 2000000 -points 6 -out BENCH_warmstart.json
//	sensmart-bench -exp energy -activations 300 -out BENCH_energy.json
//	sensmart-bench -exp interp -out BENCH_interp.json
//	sensmart-bench -exp interp -baseline BENCH_interp.baseline.json
//	sensmart-bench -exp compare -old BENCH_interp.baseline.json -new BENCH_interp.json
//	sensmart-bench -exp fig6 -serve :8080
//
// Sweeps fan out to -parallel workers (default GOMAXPROCS); each sweep
// point runs on a machine of its own and results merge in sweep order, so
// the output is byte-identical for every worker count. -parallel 1 keeps
// everything on one goroutine for debugging.
//
// Pool runs report per-point progress lines (benchmark, sweep position,
// simulation rate) on stderr; -quiet suppresses them. -serve additionally
// exposes the progress feed and dashboard over HTTP while sweeps run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"

	"repro/internal/experiment"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sensmart-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sensmart-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1|table2|fig4|fig5|fig6|fig7|fig8|overhead|hotspots|interp|faultcampaign|warmstart|energy|compare|all")
	activations := fs.Int("activations", 300, "PeriodicTask activations (fig6; the paper uses 300)")
	budget := fs.Uint64("budget", 40_000_000, "simulated cycle budget for fig7/fig8 workloads")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker count; 1 = serial")
	out := fs.String("out", "", "output path for -exp interp, faultcampaign, warmstart and energy (default BENCH_<exp>.json)")
	topK := fs.Int("top", 5, "with -exp hotspots: frames to report per benchmark")
	profileOut := fs.String("profile", "", "with -exp hotspots: run the seven benchmarks as one profiled multitask workload and write a gzipped pprof profile.proto here")
	foldedOut := fs.String("folded", "", "with -exp hotspots: like -profile, but folded stacks for speedscope / flamegraph.pl")
	reps := fs.Int("reps", 3, "with -exp interp: timing repetitions (best-of)")
	traceOut := fs.String("trace", "", "with -exp overhead: run all seven kernel benchmarks as one traced multitask workload and write Chrome trace_event JSON here (load in ui.perfetto.dev)")
	metrics := fs.Bool("metrics", false, "with -exp overhead: print the traced multitask workload's kernel metrics snapshot")
	baseline := fs.String("baseline", "", "with -exp interp: gate the fresh results against this committed BENCH_interp baseline")
	minTotal := fs.Float64("min-total", 1.5, "with -exp interp -baseline: required suite-aggregate checked/fused speedup, the end-to-end figure the translation layer is accountable for")
	tolerance := fs.Float64("tolerance", 50, "with -exp interp -baseline: allowed %% drop of serial default-mode MIPS below the baseline; with -exp compare: %% band inside which a metric counts as unchanged (wide band: absolute wall-clock is host-dependent)")
	seed := fs.Uint64("seed", 1, "with -exp faultcampaign: campaign seed (every trial site derives from it)")
	trials := fs.Int("trials", 20, "with -exp faultcampaign: injected trials per benchmark")
	prefix := fs.Uint64("prefix", 2_000_000, "with -exp warmstart: shared warm-up cycles skipped by restoring the checkpoint")
	points := fs.Int("points", 6, "with -exp warmstart: budget sweep points per pass")
	oldPath := fs.String("old", "", "with -exp compare: baseline BENCH_*.json file")
	newPath := fs.String("new", "", "with -exp compare: fresh BENCH_*.json file of the same kind")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines on stderr")
	serveAddr := fs.String("serve", "", "serve the live progress feed and dashboard over HTTP on this address (e.g. :8080) while sweeps run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sink func(string)
	if !*quiet {
		sink = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	progress := telemetry.NewProgress(sink)
	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return err
		}
		srv := &telemetry.Server{Progress: progress, Title: "sensmart-bench"}
		fmt.Fprintf(os.Stderr, "progress: dashboard on http://%s/ (also /api/progress)\n", ln.Addr())
		go func() { _ = http.Serve(ln, srv.Handler()) }()
	}
	r := experiment.Runner{Concurrency: *parallel, Progress: progress}

	runners := map[string]func() error{
		"table1": func() error {
			fmt.Print(experiment.Table1().Render())
			return nil
		},
		"table2": func() error {
			t, err := experiment.Table2()
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
			return nil
		},
		"fig4": func() error {
			t, err := r.Figure4()
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
			return nil
		},
		"fig5": func() error {
			t, err := r.Figure5()
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
			return nil
		},
		"fig6": func() error {
			points, err := r.Figure6(nil, *activations)
			if err != nil {
				return err
			}
			fmt.Print(experiment.Figure6Table(points).Render())
			return nil
		},
		"fig7": func() error {
			points, err := r.Figure7(nil, *budget)
			if err != nil {
				return err
			}
			fmt.Print(experiment.Figure7Table(points).Render())
			return nil
		},
		"fig8": func() error {
			points, err := r.Figure8(nil, *budget)
			if err != nil {
				return err
			}
			fmt.Print(experiment.Figure8Table(points).Render())
			return nil
		},
		"overhead": func() error {
			t, err := r.KernelOverhead()
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
			if *traceOut == "" && !*metrics {
				return nil
			}
			// One traced multitask run of all seven benchmarks backs both
			// the Chrome export and the metrics snapshot.
			var programs []*image.Program
			for _, b := range progs.KernelBenchmarks() {
				programs = append(programs, b.Program.Clone())
			}
			rec, m, err := experiment.TraceRun(4_000_000_000, programs...)
			if err != nil {
				return err
			}
			if *metrics {
				fmt.Println()
				fmt.Print(m.Render())
			}
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					return err
				}
				werr := trace.WriteChrome(f, rec.Events(), trace.ChromeOptions{
					ClockHz:     mcu.ClockHz,
					ServiceName: kernel.ServiceName,
				})
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return werr
				}
				fmt.Printf("trace: %d events written to %s\n", rec.Len(), *traceOut)
			}
			return nil
		},
		"hotspots": func() error {
			t, err := r.Hotspots(*topK)
			if err != nil {
				return err
			}
			fmt.Print(t.Render())
			if *profileOut == "" && *foldedOut == "" {
				return nil
			}
			// One profiled multitask run of all seven benchmarks backs the
			// pprof and folded exports.
			var programs []*image.Program
			for _, b := range progs.KernelBenchmarks() {
				programs = append(programs, b.Program.Clone())
			}
			prof, err := experiment.ProfileRun(4_000_000_000, programs...)
			if err != nil {
				return err
			}
			write := func(path, what string, emit func(w io.Writer) error) error {
				if path == "" {
					return nil
				}
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				werr := emit(f)
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return werr
				}
				fmt.Printf("profile: %s written to %s\n", what, path)
				return nil
			}
			if err := write(*profileOut, "pprof protobuf", prof.WritePprof); err != nil {
				return err
			}
			return write(*foldedOut, "folded stacks", prof.WriteFolded)
		},
		"interp": func() error {
			b, err := experiment.BenchInterp(*reps, *parallel)
			if err != nil {
				return err
			}
			path := *out
			if path == "" {
				path = "BENCH_interp.json"
			}
			data, err := experiment.WriteBenchFile(path, b)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n%s", path, data)
			var blocks, invals uint64
			var fusedFrac float64
			for _, p := range b.Benchmarks {
				blocks += p.BlocksBuilt
				invals += p.BlockInvalidations
				fusedFrac += p.FusedFrac
			}
			if n := len(b.Benchmarks); n > 0 {
				fusedFrac /= float64(n)
			}
			fmt.Printf("block translation: threshold %d, %d blocks built, %d invalidated, mean fused-instruction fraction %.3f\n",
				b.FusedThreshold, blocks, invals, fusedFrac)
			if *baseline == "" {
				return nil
			}
			raw, err := os.ReadFile(*baseline)
			if err != nil {
				return err
			}
			var base experiment.InterpBench
			if err := json.Unmarshal(raw, &base); err != nil {
				return fmt.Errorf("baseline %s: %w", *baseline, err)
			}
			if err := experiment.CheckInterpBaseline(b, &base, *minTotal, *tolerance); err != nil {
				return err
			}
			fmt.Printf("interp gate: ok (checked/fused %.2fx, serial %.1f MIPS vs baseline %.1f MIPS)\n",
				b.TotalSuiteSpeedup, b.SerialFastMIPS, base.SerialFastMIPS)
			return nil
		},
		"faultcampaign": func() error {
			b, err := r.FaultCampaign(*seed, *trials)
			if err != nil {
				return err
			}
			path := *out
			if path == "" {
				path = "BENCH_faultcampaign.json"
			}
			data, err := experiment.WriteBenchFile(path, b)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
			fmt.Print(experiment.FaultCampaignTable(b).Render())
			return nil
		},
		"warmstart": func() error {
			b, err := r.BenchWarmstart(*prefix, *points)
			if err != nil {
				return err
			}
			path := *out
			if path == "" {
				path = "BENCH_warmstart.json"
			}
			data, err := experiment.WriteBenchFile(path, b)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
			fmt.Printf("warmstart: checkpoint at cycle %d (%d bytes), %d budgets, identical=%v, cold %.2fs vs warm %.2fs (%.2fx)\n",
				b.CheckpointAt, b.SnapshotBytes, len(b.Budgets), b.Identical,
				float64(b.ColdWallNS)/1e9, float64(b.WarmWallNS)/1e9, b.Speedup)
			return nil
		},
		"energy": func() error {
			b, err := r.BenchEnergy(*activations)
			if err != nil {
				return err
			}
			path := *out
			if path == "" {
				path = "BENCH_energy.json"
			}
			data, err := experiment.WriteBenchFile(path, b)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
			fmt.Print(experiment.EnergyTable(b).Render())
			return nil
		},
		"compare": func() error {
			if *oldPath == "" || *newPath == "" {
				return fmt.Errorf("-exp compare needs -old and -new BENCH_*.json files")
			}
			tbl, regressions, err := experiment.CompareBenchFiles(*oldPath, *newPath, *tolerance)
			if err != nil {
				return err
			}
			fmt.Print(tbl.Render())
			if len(regressions) > 0 {
				for _, reg := range regressions {
					fmt.Fprintln(os.Stderr, "regression:", reg)
				}
				return fmt.Errorf("%d metric(s) regressed beyond ±%.0f%%", len(regressions), *tolerance)
			}
			fmt.Printf("compare: ok, no metric regressed beyond ±%.0f%%\n", *tolerance)
			return nil
		},
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "overhead", "hotspots"} {
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println()
		}
		return nil
	}
	runner, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return runner()
}
