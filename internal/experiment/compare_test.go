package experiment

import (
	"path/filepath"
	"strings"
	"testing"
)

// interpFixture builds a minimal but schema-complete interp payload.
func interpFixture(fastMIPS float64) *InterpBench {
	b := &InterpBench{
		BenchMeta:          NewBenchMeta("interp", "kernel7"),
		Reps:               3,
		SerialFastMs:       10,
		SerialFastMIPS:     fastMIPS,
		SuiteSpeedup:       3.0,
		FusedThreshold:     32,
		FusedSuiteSpeedup:  2.0,
		TotalSuiteSpeedup:  6.0,
		AllCyclesIdentical: true,
	}
	b.Benchmarks = []InterpBenchPoint{
		{Benchmark: "lfsr", Cycles: 1000, Instructions: 500, CheckedMs: 3, FastMs: 1, FusedMs: 0.5,
			CheckedMIPS: fastMIPS / 3, FastMIPS: fastMIPS, FusedMIPS: 2 * fastMIPS,
			Speedup: 3, FusedSpeedup: 2, CyclesIdentical: true},
		{Benchmark: "sort", Cycles: 2000, Instructions: 900, CheckedMs: 6, FastMs: 2, FusedMs: 1,
			CheckedMIPS: fastMIPS / 3, FastMIPS: fastMIPS, FusedMIPS: 2 * fastMIPS,
			Speedup: 3, FusedSpeedup: 2, CyclesIdentical: true},
	}
	return b
}

func writeFixture(t *testing.T, name string, v any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if _, err := WriteBenchFile(path, v); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareIdenticalFilesOK(t *testing.T) {
	old := writeFixture(t, "old.json", interpFixture(100))
	cur := writeFixture(t, "new.json", interpFixture(100))
	tbl, regressions, err := CompareBenchFiles(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("identical files regressed: %v", regressions)
	}
	for _, row := range tbl.Rows {
		if v := row[len(row)-1]; v != "ok" && v != "n/a" {
			t.Fatalf("identical files produced verdict %q in row %v", v, row)
		}
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	old := writeFixture(t, "old.json", interpFixture(100))
	slow := interpFixture(50) // halved throughput, well outside a 10% band
	cur := writeFixture(t, "new.json", slow)
	_, regressions, err := CompareBenchFiles(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) == 0 {
		t.Fatal("halved MIPS not flagged as a regression")
	}
	found := false
	for _, r := range regressions {
		if strings.Contains(r, "serial_fast_mips") {
			found = true
		}
	}
	if !found {
		t.Fatalf("suite throughput row missing from regressions: %v", regressions)
	}
}

func TestCompareDirectionAware(t *testing.T) {
	// Wall-clock metrics regress UPWARD: a slower warm pass must be flagged
	// even though the number grew.
	old := writeFixture(t, "old.json", warmstartFixture(true, 1.5, 1_000_000_000))
	cur := writeFixture(t, "new.json", warmstartFixture(true, 1.5, 2_500_000_000))
	_, regressions, err := CompareBenchFiles(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "warm_wall") {
		t.Fatalf("2.5x slower warm_wall not flagged: %v", regressions)
	}
}

func TestCompareKindMismatch(t *testing.T) {
	old := writeFixture(t, "old.json", interpFixture(100))
	cur := writeFixture(t, "new.json", warmstartFixture(true, 1.5, 1_000_000_000))
	if _, _, err := CompareBenchFiles(old, cur, 10); err == nil {
		t.Fatal("comparing interp against warmstart did not error")
	}
}

// Files written before the BenchMeta header existed carry no kind; the
// loader must still classify them by payload shape and note the inference.
func TestCompareLegacyFileInference(t *testing.T) {
	legacy := interpFixture(100)
	legacy.BenchMeta = BenchMeta{} // schema_version 0, no kind
	old := writeFixture(t, "old.json", legacy)
	cur := writeFixture(t, "new.json", interpFixture(100))
	tbl, regressions, err := CompareBenchFiles(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("legacy comparison regressed: %v", regressions)
	}
	noted := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "legacy") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("legacy inference not noted: %v", tbl.Notes)
	}
}

func TestCompareMissingBenchmarkNoted(t *testing.T) {
	old := writeFixture(t, "old.json", interpFixture(100))
	cur := interpFixture(100)
	cur.Benchmarks = cur.Benchmarks[:1] // drop "sort"
	curPath := writeFixture(t, "new.json", cur)
	tbl, _, err := CompareBenchFiles(old, curPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	noted := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "sort") && strings.Contains(n, "only one file") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("dropped benchmark not noted: %v", tbl.Notes)
	}
}

func TestCompareRejectsUnknownPayload(t *testing.T) {
	path := writeFixture(t, "odd.json", map[string]int{"answer": 42})
	if _, _, err := CompareBenchFiles(path, path, 10); err == nil {
		t.Fatal("unrecognized payload did not error")
	}
}

// warmstartFixture builds a minimal warmstart payload.
func warmstartFixture(identical bool, speedup float64, warmNS int64) *WarmstartBench {
	return &WarmstartBench{
		BenchMeta:     NewBenchMeta("warmstart", "kernel7"),
		SnapshotBytes: 7000,
		Identical:     identical,
		ColdWallNS:    2_000_000_000,
		WarmWallNS:    warmNS,
		Speedup:       speedup,
	}
}

// energyFixture builds a minimal energy payload.
func energyFixture(lfsrPJ, matePJ, tkPJ uint64, orderingOK bool) *EnergyBench {
	b := &EnergyBench{
		BenchMeta:   NewBenchMeta("energy", "kernel7 + periodic baselines"),
		Activations: 10,
		OrderingOK:  orderingOK,
	}
	b.Benchmarks = []EnergyBenchPoint{{Benchmark: "lfsr", Cycles: 1000}}
	b.Benchmarks[0].TotalPJ = lfsrPJ
	b.Baselines = []EnergyBaselineRow{
		{Baseline: "mate", Activations: 10, TotalPJ: matePJ * 10, PJPerActivation: matePJ},
		{Baseline: "t-kernel", Activations: 10, TotalPJ: tkPJ * 10, PJPerActivation: tkPJ},
	}
	return b
}

// Both new kinds through the full load-diff-verdict path, table-driven:
// identical files pass, regressions in the bad direction are flagged, and
// moves in the good direction are not (direction awareness).
func TestCompareWarmstartAndEnergyKinds(t *testing.T) {
	cases := []struct {
		name        string
		old, new    any
		wantRegress string // "" = no regression expected
	}{
		{"warmstart identical ok",
			warmstartFixture(true, 1.5, 1_000_000_000),
			warmstartFixture(true, 1.5, 1_000_000_000), ""},
		{"warmstart identity flip regresses",
			warmstartFixture(true, 1.5, 1_000_000_000),
			warmstartFixture(false, 1.5, 1_000_000_000), "identical"},
		{"warmstart slower warm pass regresses",
			warmstartFixture(true, 1.5, 1_000_000_000),
			warmstartFixture(true, 1.5, 5_000_000_000), "warm_wall"},
		{"warmstart faster warm pass is not a regression",
			warmstartFixture(true, 1.5, 1_000_000_000),
			warmstartFixture(true, 3.5, 400_000_000), ""},
		{"energy identical ok",
			energyFixture(5000, 900, 100, true),
			energyFixture(5000, 900, 100, true), ""},
		{"energy benchmark joules growth regresses",
			energyFixture(5000, 900, 100, true),
			energyFixture(9000, 900, 100, true), "total_pj"},
		{"energy baseline pj/activation growth regresses",
			energyFixture(5000, 900, 100, true),
			energyFixture(5000, 900, 300, true), "pj_per_activation"},
		{"energy joules drop is not a regression",
			energyFixture(5000, 900, 100, true),
			energyFixture(2000, 900, 100, true), ""},
		{"energy ordering flip regresses",
			energyFixture(5000, 900, 100, true),
			energyFixture(5000, 900, 100, false), "ordering_ok"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := writeFixture(t, "old.json", tc.old)
			cur := writeFixture(t, "new.json", tc.new)
			_, regressions, err := CompareBenchFiles(old, cur, 10)
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantRegress == "" {
				if len(regressions) != 0 {
					t.Fatalf("unexpected regressions: %v", regressions)
				}
				return
			}
			found := false
			for _, r := range regressions {
				if strings.Contains(r, tc.wantRegress) {
					found = true
				}
			}
			if !found {
				t.Fatalf("metric %q not flagged; regressions: %v", tc.wantRegress, regressions)
			}
		})
	}
}

func TestCompareEnergyMissingBaselineNoted(t *testing.T) {
	old := energyFixture(5000, 900, 100, true)
	cur := energyFixture(5000, 900, 100, true)
	cur.Baselines = cur.Baselines[:1] // drop "t-kernel"
	oldPath := writeFixture(t, "old.json", old)
	curPath := writeFixture(t, "new.json", cur)
	tbl, _, err := CompareBenchFiles(oldPath, curPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	noted := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "t-kernel") && strings.Contains(n, "only one file") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("dropped baseline not noted: %v", tbl.Notes)
	}
}

func TestCheckInterpBaselineTelemetryGate(t *testing.T) {
	base := interpFixture(100)
	cur := interpFixture(100)
	if err := CheckInterpBaseline(cur, base, 1.5, 1.3, 1.5, 40); err != nil {
		t.Fatalf("clean bench failed the gate: %v", err)
	}
	cur.TelemetryOverheadPct = 1.5
	if err := CheckInterpBaseline(cur, base, 1.5, 1.3, 1.5, 40); err == nil {
		t.Fatal("1.5% armed-telemetry overhead passed the <1% gate")
	}
}

func TestCheckInterpBaselineEnergyGate(t *testing.T) {
	// The gate reads only the fresh run's field, so baselines written before
	// the energy meter existed (no energy_overhead_pct) must keep passing.
	base := interpFixture(100)
	cur := interpFixture(100)
	cur.EnergyOverheadPct = 1.5
	if err := CheckInterpBaseline(cur, base, 1.5, 1.3, 1.5, 40); err == nil {
		t.Fatal("1.5% armed-energy overhead passed the <1% gate")
	}
}

func TestCheckInterpBaselineFusedGate(t *testing.T) {
	base := interpFixture(100)
	cur := interpFixture(100)
	cur.FusedSuiteSpeedup = 1.1
	if err := CheckInterpBaseline(cur, base, 1.5, 1.3, 1.5, 40); err == nil {
		t.Fatal("1.1x fused suite speedup passed the 1.3x gate")
	}
}

func TestCheckInterpBaselineTotalGate(t *testing.T) {
	base := interpFixture(100)
	cur := interpFixture(100)
	cur.TotalSuiteSpeedup = 1.4
	if err := CheckInterpBaseline(cur, base, 1.5, 1.3, 1.5, 40); err == nil {
		t.Fatal("1.4x total suite speedup passed the 1.5x gate")
	}
}

func TestCompareInterpOldBaselineWithoutFusedColumns(t *testing.T) {
	// A baseline written before block translation has zero fused columns;
	// the comparator must skip them (with a note), not flag regressions.
	old := interpFixture(100)
	old.FusedSuiteSpeedup = 0
	old.TotalSuiteSpeedup = 0
	for i := range old.Benchmarks {
		old.Benchmarks[i].FusedMs = 0
		old.Benchmarks[i].FusedMIPS = 0
		old.Benchmarks[i].FusedSpeedup = 0
	}
	oldPath := writeFixture(t, "old.json", old)
	curPath := writeFixture(t, "new.json", interpFixture(100))
	tbl, regressions, err := CompareBenchFiles(oldPath, curPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("fused columns vs pre-translation baseline flagged: %v", regressions)
	}
	noted := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "fused") {
			noted = true
		}
	}
	if !noted {
		t.Fatalf("skipped fused columns not noted: %v", tbl.Notes)
	}
}
