package experiment

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
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
		warmstartFixture(true, 7000),
	} {
		old := writeFixture(t, "old.json", fixture)
		cur := writeFixture(t, "new.json", fixture)
		tbl, regressions, err := CompareBenchFiles(old, cur)
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
			if v := row[len(row)-1]; v != "ok" {
				t.Fatalf("identical files produced verdict %q in row %v", v, row)
			}
		}
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	// One more picojoule: the comparison is exact, so it regresses.
	cur := writeFixture(t, "new.json", energyFixture(5001, 900, 100, true))
	_, regressions, err := CompareBenchFiles(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) == 0 {
		t.Fatal("one more picojoule not flagged as a regression")
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
	// Snapshot size regresses UPWARD: a larger checkpoint must be flagged
	// even though the number grew.
	old := writeFixture(t, "old.json", warmstartFixture(true, 7000))
	cur := writeFixture(t, "new.json", warmstartFixture(true, 7008))
	_, regressions, err := CompareBenchFiles(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "snapshot_bytes") {
		t.Fatalf("8 more snapshot bytes not flagged: %v", regressions)
	}
}

// A verdict absent from the old file is counted as zero there, so the first
// breach regresses instead of reading as n/a.
func TestCompareNewVerdictFromZero(t *testing.T) {
	fixture := func(verdicts map[string]int) *FaultBench {
		return &FaultBench{
			BenchMeta:  NewBenchMeta("faultcampaign", "faultinject suite"),
			Benchmarks: []faultinject.Report{{Benchmark: "crc", Verdicts: verdicts}},
		}
	}
	old := writeFixture(t, "old.json", fixture(map[string]int{faultinject.VerdictContainedFault: 20}))
	cur := writeFixture(t, "new.json", fixture(map[string]int{
		faultinject.VerdictContainedFault: 19, faultinject.VerdictCrossTaskBreach: 1}))
	_, regressions, err := CompareBenchFiles(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 2 || !strings.Contains(regressions[0], faultinject.VerdictContainedFault) ||
		!strings.Contains(regressions[1], faultinject.VerdictCrossTaskBreach) {
		t.Fatalf("one contained trial turned breach: regressions %v", regressions)
	}
}

func TestCompareKindMismatch(t *testing.T) {
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	cur := writeFixture(t, "new.json", warmstartFixture(true, 7000))
	if _, _, err := CompareBenchFiles(old, cur); err == nil {
		t.Fatal("comparing energy against warmstart did not error")
	}
}

func TestCompareMissingBenchmarkNoted(t *testing.T) {
	old := writeFixture(t, "old.json", energyFixture(5000, 900, 100, true))
	cur := energyFixture(5000, 900, 100, true)
	cur.Benchmarks = nil // drop "lfsr"
	curPath := writeFixture(t, "new.json", cur)
	tbl, _, err := CompareBenchFiles(old, curPath)
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
	if _, _, err := CompareBenchFiles(path, path); err == nil {
		t.Fatal("unrecognized payload did not error")
	}
}

// warmstartFixture builds a minimal warmstart payload.
func warmstartFixture(identical bool, snapshotBytes int) *WarmstartBench {
	return &WarmstartBench{
		BenchMeta:     NewBenchMeta("warmstart", "kernel7"),
		SnapshotBytes: snapshotBytes,
		Identical:     identical,
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
			warmstartFixture(true, 7000),
			warmstartFixture(true, 7000), ""},
		{"warmstart identity flip regresses",
			warmstartFixture(true, 7000),
			warmstartFixture(false, 7000), "identical"},
		{"warmstart larger snapshot regresses",
			warmstartFixture(true, 7000),
			warmstartFixture(true, 7001), "snapshot_bytes"},
		{"warmstart smaller snapshot is not a regression",
			warmstartFixture(true, 7000),
			warmstartFixture(true, 6000), ""},
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
			_, regressions, err := CompareBenchFiles(old, cur)
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
	tbl, _, err := CompareBenchFiles(oldPath, curPath)
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
