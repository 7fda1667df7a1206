package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/faultinject"
)

// benchFile is one parsed BENCH_* file: its header plus exactly one typed
// payload, selected by the header's kind (or inferred for legacy files
// written before the header existed).
type benchFile struct {
	path      string
	meta      BenchMeta
	interp    *InterpBench
	faultcamp *FaultBench
	warmstart *WarmstartBench
	energy    *EnergyBench
}

// loadBenchFile reads and type-detects one BENCH_* file.
func loadBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// The probe decodes only the header plus the interp shape's
	// discriminating field, so legacy interp files (schema_version 0, no
	// kind, written before the header existed) still classify.
	var probe struct {
		BenchMeta
		SuiteSpeedup *float64 `json:"suite_speedup"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	kind := probe.Kind
	if kind == "" {
		if probe.SuiteSpeedup == nil {
			return nil, fmt.Errorf("%s: not a recognized BENCH_* payload (no kind header and no known shape)", path)
		}
		kind = "interp"
	}
	f := &benchFile{path: path, meta: probe.BenchMeta}
	f.meta.Kind = kind
	switch kind {
	case "interp":
		f.interp = new(InterpBench)
		err = json.Unmarshal(raw, f.interp)
	case "faultcampaign":
		f.faultcamp = new(FaultBench)
		err = json.Unmarshal(raw, f.faultcamp)
	case "warmstart":
		f.warmstart = new(WarmstartBench)
		err = json.Unmarshal(raw, f.warmstart)
	case "energy":
		f.energy = new(EnergyBench)
		err = json.Unmarshal(raw, f.energy)
	default:
		return nil, fmt.Errorf("%s: unknown benchmark kind %q", path, kind)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// forensicCoverage counts the trials owing a forensic report (non-contained
// verdicts) and how many actually carry one.
func forensicCoverage(r faultinject.Report) (got, owed int) {
	for _, tr := range r.Trials {
		if !faultinject.NeedsForensic(tr.Verdict) {
			continue
		}
		owed++
		if tr.Forensic != nil {
			got++
		}
	}
	return got, owed
}

// ratio is got/owed, 0 when nothing is owed.
func ratio(got, owed int) float64 {
	if owed == 0 {
		return 0
	}
	return float64(got) / float64(owed)
}

// b2f encodes a pass/fail flag as 0/1 for direction-aware comparison.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// compareRow is one metric of one benchmark diffed across the two files.
type compareRow struct {
	bench  string
	metric string
	unit   string
	old    float64
	new    float64
	// higherBetter orients the verdict: MIPS and speedups regress downward,
	// wall-clock times and joules regress upward.
	higherBetter bool
}

// verdict classifies the delta against the tolerance band: moves beyond the
// band in the bad direction regress, beyond it in the good direction
// improve, and anything inside the band is ok.
func (r *compareRow) verdict(tolerancePct float64) string {
	if r.old == 0 {
		return "n/a"
	}
	delta := 100 * (r.new - r.old) / r.old
	bad := delta < -tolerancePct
	good := delta > tolerancePct
	if !r.higherBetter {
		bad, good = good, bad
	}
	switch {
	case bad:
		return "regressed"
	case good:
		return "improved"
	default:
		return "ok"
	}
}

// CompareBenchFiles diffs two BENCH_* files of the same kind, benchmark by
// benchmark and metric by metric, rendering a delta table with a
// tolerance-banded verdict per row. It returns the rendered table plus the
// list of regressed rows; `sensmart-bench -exp compare` (and the
// `make bench-diff` CI gate) fails when that list is non-empty. Host-bound
// metrics (MIPS, wall ms) need a generous tolerance; ratio metrics
// (speedups) are host-relative and stable.
func CompareBenchFiles(oldPath, newPath string, tolerancePct float64) (*Table, []string, error) {
	oldF, err := loadBenchFile(oldPath)
	if err != nil {
		return nil, nil, err
	}
	newF, err := loadBenchFile(newPath)
	if err != nil {
		return nil, nil, err
	}
	if oldF.meta.Kind != newF.meta.Kind {
		return nil, nil, fmt.Errorf("kind mismatch: %s is %q, %s is %q",
			oldPath, oldF.meta.Kind, newPath, newF.meta.Kind)
	}
	if o, n := oldF.meta.SchemaVersion, newF.meta.SchemaVersion; o != 0 && n != 0 && o != n {
		return nil, nil, fmt.Errorf("schema version mismatch: %s is v%d, %s is v%d", oldPath, o, newPath, n)
	}

	var rows []compareRow
	var notes []string
	missing := func(what, name string) {
		notes = append(notes, fmt.Sprintf("%s %q present in only one file; skipped", what, name))
	}
	switch oldF.meta.Kind {
	case "interp":
		o, n := oldF.interp, newF.interp
		// Baselines written before block translation carry no fused columns;
		// comparing against zeros would read as a regression, so only emit
		// fused rows when both files have them.
		haveFused := o.FusedSuiteSpeedup > 0 && n.FusedSuiteSpeedup > 0
		if o.FusedSuiteSpeedup > 0 != (n.FusedSuiteSpeedup > 0) {
			notes = append(notes, "fused-translation columns present in only one file; skipped")
		}
		byName := make(map[string]InterpBenchPoint, len(o.Benchmarks))
		for _, p := range o.Benchmarks {
			byName[p.Benchmark] = p
		}
		for _, np := range n.Benchmarks {
			op, ok := byName[np.Benchmark]
			if !ok {
				missing("benchmark", np.Benchmark)
				continue
			}
			delete(byName, np.Benchmark)
			rows = append(rows,
				compareRow{np.Benchmark, "fast_mips", "MIPS", op.FastMIPS, np.FastMIPS, true},
				compareRow{np.Benchmark, "checked_mips", "MIPS", op.CheckedMIPS, np.CheckedMIPS, true},
				compareRow{np.Benchmark, "speedup", "x", op.Speedup, np.Speedup, true})
			if haveFused {
				rows = append(rows,
					compareRow{np.Benchmark, "fused_mips", "MIPS", op.FusedMIPS, np.FusedMIPS, true},
					compareRow{np.Benchmark, "fused_speedup", "x", op.FusedSpeedup, np.FusedSpeedup, true})
			}
		}
		for name := range byName {
			missing("benchmark", name)
		}
		rows = append(rows,
			compareRow{"suite", "serial_fast_mips", "MIPS", o.SerialFastMIPS, n.SerialFastMIPS, true},
			compareRow{"suite", "suite_speedup", "x", o.SuiteSpeedup, n.SuiteSpeedup, true})
		if haveFused {
			rows = append(rows,
				compareRow{"suite", "fused_suite_speedup", "x", o.FusedSuiteSpeedup, n.FusedSuiteSpeedup, true})
		}
	case "faultcampaign":
		o, n := oldF.faultcamp, newF.faultcamp
		byName := make(map[string]faultinject.Report, len(o.Benchmarks))
		for _, b := range o.Benchmarks {
			byName[b.Benchmark] = b
		}
		for _, nb := range n.Benchmarks {
			ob, ok := byName[nb.Benchmark]
			if !ok {
				missing("benchmark", nb.Benchmark)
				continue
			}
			delete(byName, nb.Benchmark)
			// One row per verdict seen on either side. Containment
			// verdicts improve upward; escapes and breaches improve
			// downward.
			var verdicts []string
			seen := make(map[string]bool, len(ob.Verdicts)+len(nb.Verdicts))
			for _, m := range []map[string]int{ob.Verdicts, nb.Verdicts} {
				for v := range m {
					if !seen[v] {
						seen[v] = true
						verdicts = append(verdicts, v)
					}
				}
			}
			sort.Strings(verdicts)
			for _, v := range verdicts {
				higherBetter := v == faultinject.VerdictContainedFault ||
					v == faultinject.VerdictContainedRecovered
				rows = append(rows, compareRow{nb.Benchmark, v, "trials",
					float64(ob.Verdicts[v]), float64(nb.Verdicts[v]), higherBetter})
			}
			// Forensic coverage: every non-contained trial that fired owes a
			// forensic report. The ratio is 1.0 when coverage is complete, so
			// a drop flags lost observability without penalizing runs whose
			// containment improved (fewer escapes shrink both sides). Files
			// written before forensics existed have old coverage 0, which
			// verdict() renders as n/a instead of a regression.
			oGot, oOwed := forensicCoverage(ob)
			nGot, nOwed := forensicCoverage(nb)
			if oOwed > 0 || nOwed > 0 {
				rows = append(rows, compareRow{nb.Benchmark, "forensic_coverage", "ratio",
					ratio(oGot, oOwed), ratio(nGot, nOwed), true})
			}
		}
		for name := range byName {
			missing("benchmark", name)
		}
	case "warmstart":
		o, n := oldF.warmstart, newF.warmstart
		// Identity is pass/fail, not tolerance-banded: encode it as 0/1 so
		// any flip out of "identical" shows as a -100% regression.
		rows = append(rows,
			compareRow{"warmstart", "identical", "bool", b2f(o.Identical), b2f(n.Identical), true},
			compareRow{"warmstart", "speedup", "x", o.Speedup, n.Speedup, true},
			compareRow{"warmstart", "cold_wall", "s", float64(o.ColdWallNS) / 1e9, float64(n.ColdWallNS) / 1e9, false},
			compareRow{"warmstart", "warm_wall", "s", float64(o.WarmWallNS) / 1e9, float64(n.WarmWallNS) / 1e9, false},
			compareRow{"warmstart", "snapshot_bytes", "B", float64(o.SnapshotBytes), float64(n.SnapshotBytes), false})
	case "energy":
		o, n := oldF.energy, newF.energy
		byName := make(map[string]EnergyBenchPoint, len(o.Benchmarks))
		for _, p := range o.Benchmarks {
			byName[p.Benchmark] = p
		}
		for _, np := range n.Benchmarks {
			op, ok := byName[np.Benchmark]
			if !ok {
				missing("benchmark", np.Benchmark)
				continue
			}
			delete(byName, np.Benchmark)
			rows = append(rows,
				compareRow{np.Benchmark, "total_pj", "pJ", float64(op.TotalPJ), float64(np.TotalPJ), false})
		}
		for name := range byName {
			missing("benchmark", name)
		}
		byBase := make(map[string]EnergyBaselineRow, len(o.Baselines))
		for _, b := range o.Baselines {
			byBase[b.Baseline] = b
		}
		for _, nb := range n.Baselines {
			ob, ok := byBase[nb.Baseline]
			if !ok {
				missing("baseline", nb.Baseline)
				continue
			}
			delete(byBase, nb.Baseline)
			rows = append(rows, compareRow{"periodic/" + nb.Baseline, "pj_per_activation", "pJ",
				float64(ob.PJPerActivation), float64(nb.PJPerActivation), false})
		}
		for name := range byBase {
			missing("baseline", name)
		}
		rows = append(rows,
			compareRow{"suite", "ordering_ok", "bool", b2f(o.OrderingOK), b2f(n.OrderingOK), true})
	}

	t := &Table{
		ID:     "compare",
		Title:  fmt.Sprintf("%s: %s vs %s (tolerance ±%.0f%%)", oldF.meta.Kind, oldPath, newPath, tolerancePct),
		Header: []string{"benchmark", "metric", "old", "new", "delta", "verdict"},
		Notes:  notes,
	}
	var regressions []string
	for _, r := range rows {
		delta := "n/a"
		if r.old != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.new-r.old)/r.old)
		}
		v := r.verdict(tolerancePct)
		if v == "regressed" {
			regressions = append(regressions, fmt.Sprintf("%s %s: %.2f -> %.2f %s (%s)",
				r.bench, r.metric, r.old, r.new, r.unit, delta))
		}
		t.Rows = append(t.Rows, []string{
			r.bench, r.metric,
			fmt.Sprintf("%.2f %s", r.old, r.unit),
			fmt.Sprintf("%.2f %s", r.new, r.unit),
			delta, v,
		})
	}
	if oldF.meta.SchemaVersion == 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%s has no schema header (pre-v%d legacy file); kind inferred from shape",
			oldPath, BenchSchemaVersion))
	}
	return t, regressions, nil
}
