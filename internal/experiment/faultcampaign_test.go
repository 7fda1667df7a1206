package experiment

import (
	"bytes"
	"testing"

	"repro/internal/faultinject"
)

// TestFaultCampaignPoolDeterminism demands the campaign report be
// byte-identical between a serial run and an 8-worker pool: trial sites
// derive from (seed, benchmark, trial) alone and results merge in suite
// order, so worker scheduling must never show through.
func TestFaultCampaignPoolDeterminism(t *testing.T) {
	const seed, trials = 7, 6
	serial, err := Runner{Concurrency: 1}.FaultCampaign(seed, trials)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := Runner{Concurrency: 8}.FaultCampaign(seed, trials)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MarshalBench(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalBench(pooled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("serial and pooled campaign reports differ:\n--- serial ---\n%s\n--- pooled ---\n%s", a, b)
	}
}

// TestFaultCampaignCoversSuite checks the report includes every campaign
// benchmark with the configured trial count and only known verdicts.
func TestFaultCampaignCoversSuite(t *testing.T) {
	b, err := Runner{Concurrency: 4}.FaultCampaign(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != "faultcampaign" || b.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("bad header: kind=%q schema=%d", b.Kind, b.SchemaVersion)
	}
	want := faultinject.Benchmarks()
	if len(b.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmark reports, want %d", len(b.Benchmarks), len(want))
	}
	known := map[string]bool{
		faultinject.VerdictContainedFault:     true,
		faultinject.VerdictContainedRecovered: true,
		faultinject.VerdictSilentCorruption:   true,
		faultinject.VerdictCrossTaskBreach:    true,
		faultinject.VerdictKernelCompromise:   true,
	}
	for i, rep := range b.Benchmarks {
		if rep.Benchmark != want[i].Name {
			t.Errorf("report %d is %q, want %q (suite order must be stable)", i, rep.Benchmark, want[i].Name)
		}
		if len(rep.Trials) != 6 {
			t.Errorf("%s: %d trials, want 6", rep.Benchmark, len(rep.Trials))
		}
		total := 0
		for v, n := range rep.Verdicts {
			if !known[v] {
				t.Errorf("%s: unknown verdict %q", rep.Benchmark, v)
			}
			total += n
		}
		if total != 6 {
			t.Errorf("%s: verdict counts sum to %d, want 6", rep.Benchmark, total)
		}
	}
}

// TestCompareFaultCampaignFiles round-trips a campaign payload through the
// BENCH_* comparator: identical files must diff clean.
func TestCompareFaultCampaignFiles(t *testing.T) {
	b, err := Runner{Concurrency: 4}.FaultCampaign(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldPath, newPath := dir+"/old.json", dir+"/new.json"
	if _, err := WriteBenchFile(oldPath, b); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBenchFile(newPath, b); err != nil {
		t.Fatal(err)
	}
	tbl, regressions, err := CompareBenchFiles(oldPath, newPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(regressions) != 0 {
		t.Fatalf("identical files regressed: %v", regressions)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("comparator produced no rows for faultcampaign files")
	}
	// Every non-contained trial carries its forensic report, so whenever a
	// benchmark owes any, the comparator must emit a forensic_coverage row
	// and identical files must diff it clean at full coverage.
	owed := 0
	for _, rep := range b.Benchmarks {
		_, o := forensicCoverage(rep)
		owed += o
	}
	covRows := 0
	for _, row := range tbl.Rows {
		if row[1] != "forensic_coverage" {
			continue
		}
		covRows++
		if row[3] != "1.00 ratio" || row[5] != "ok" {
			t.Errorf("forensic_coverage row for %s: new=%q verdict=%q, want full coverage diffing clean",
				row[0], row[3], row[5])
		}
	}
	if owed > 0 && covRows == 0 {
		t.Errorf("%d trials owe forensic reports but no forensic_coverage row was emitted", owed)
	}
}
