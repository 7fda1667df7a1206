package main

import "testing"

func TestBenchToolRunsQuickExperiments(t *testing.T) {
	// table1 and fig4 are cheap enough for a unit test; the heavyweight
	// sweeps are covered by the root benchmarks and the experiment package.
	for _, exp := range []string{"table1", "fig4"} {
		if err := run([]string{"-exp", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

// TestBenchToolRejectsUnknownExperiment also covers the retired compare
// experiment: BENCH payloads are goldens, compared with cmp.
func TestBenchToolRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "compare"} {
		if err := run([]string{"-exp", exp}); err == nil {
			t.Errorf("-exp %s: expected unknown-experiment error", exp)
		}
	}
}

func TestBenchToolKernelOverhead(t *testing.T) {
	if err := run([]string{"-exp", "overhead"}); err != nil {
		t.Errorf("overhead: %v", err)
	}
}
