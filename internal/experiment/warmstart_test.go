package experiment

import "testing"

// TestBenchWarmstartIdentical runs a short warm-start sweep: every warm
// point, restored into a fork of the prefix run, must end exactly like its
// cold twin booted from cycle 0.
func TestBenchWarmstartIdentical(t *testing.T) {
	const prefix = 300_000
	b, err := Runner{Concurrency: 2}.BenchWarmstart(prefix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Identical {
		t.Fatal("warm rows diverge from cold rows")
	}
	if len(b.Cold) != 3 || len(b.Warm) != 3 {
		t.Fatalf("%d cold and %d warm rows, want 3 each", len(b.Cold), len(b.Warm))
	}
	if b.CheckpointAt < prefix {
		t.Errorf("checkpoint at cycle %d, before the %d-cycle prefix", b.CheckpointAt, prefix)
	}
	for i, cold := range b.Cold {
		if warm := b.Warm[i]; warm != cold {
			t.Errorf("point %d: warm row %+v, want the cold row %+v", i, warm, cold)
		}
		if cold.Cycles < b.Budgets[i] && !cold.Done {
			t.Errorf("point %d stopped at cycle %d, short of its %d budget", i, cold.Cycles, cold.Budget)
		}
	}
}
