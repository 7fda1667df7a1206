package experiment

import (
	"path/filepath"
	"strings"
	"testing"
)

func writeFixture(t *testing.T, name string, v any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if _, err := WriteBenchFile(path, v); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareIdenticalFilesOK(t *testing.T) {
	for _, fixture := range []any{
		energyFixture(5000, 900, 100, true),
		warmstartFixture(true, 1.5, 1_000_000_000),
	} {
		old := writeFixture(t, "old.json", fixture)
		cur := writeFixture(t, "new.json", fixture)
		tbl, regressions, err := CompareBenchFiles(old, cur, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(regressions) != 0 {
			t.Fatalf("identical files regressed: %v", regressions)
		}
		if len(tbl.Rows) == 0 {
			t.Fatal("identical files produced no rows")
		}
		for _, row := range tbl.Rows {
			if v := row[len(row)-1]; v != "ok" && v != "n/a" {
				t.Fatalf("identical files produced verdict %q in row %v", v, row)
			}
		}
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	// Doubled benchmark joules, well outside a 10% band.
	cur := writeFixture(t, "new.json", energyFixture(10000, 900, 100, true))
	_, regressions, err := CompareBenchFiles(old, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) == 0 {
		t.Fatal("doubled joules not flagged as a regression")
	}
	found := false
	for _, r := range regressions {
		if strings.Contains(r, "lfsr") && strings.Contains(r, "total_pj") {
			found = true
		}
	}
	if !found {
		t.Fatalf("benchmark joules row missing from regressions: %v", regressions)
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
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	cur := writeFixture(t, "new.json", warmstartFixture(true, 1.5, 1_000_000_000))
	if _, _, err := CompareBenchFiles(old, cur, 10); err == nil {
		t.Fatal("comparing energy against warmstart did not error")
	}
}

func TestCompareMissingBenchmarkNoted(t *testing.T) {
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	cur := energyFixture(5000, 900, 100, true)
	cur.Benchmarks = nil // drop "lfsr"
	curPath := writeFixture(t, "new.json", cur)
	tbl, _, err := CompareBenchFiles(old, curPath, 10)
	if err != nil {
		t.Fatal(err)
	}
	noted := false
	for _, n := range tbl.Notes {
		if strings.Contains(n, "lfsr") && strings.Contains(n, "only one file") {
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
