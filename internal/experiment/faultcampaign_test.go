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
// benchmark with the configured trial count and only known verdicts, and
// that exactly the trials owing a forensic report carry one: those whose
// injection fired and whose verdict is not contained.
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
	forensics := 0
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
		for _, tr := range rep.Trials {
			owed := faultinject.NeedsForensic(tr.Verdict) && tr.Site != "unfired"
			if owed {
				forensics++
			}
			if (tr.Forensic != nil) != owed {
				t.Errorf("%s trial %d (%s at %s): carries a forensic report %v, owes one %v",
					rep.Benchmark, tr.Trial, tr.Verdict, tr.Site, tr.Forensic != nil, owed)
			}
		}
	}
	if forensics == 0 {
		t.Error("no trial owes a forensic report; the coverage check proves nothing")
	}
}
