package main

import (
	"path/filepath"
	"testing"

	"repro/internal/experiment"
)

func TestBenchToolRunsQuickExperiments(t *testing.T) {
	// table1 and fig4 are cheap enough for a unit test; the heavyweight
	// sweeps are covered by the root benchmarks and the experiment package.
	for _, exp := range []string{"table1", "fig4"} {
		if err := run([]string{"-exp", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}

func TestBenchToolRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "fig99"}); err == nil {
		t.Error("expected unknown-experiment error")
	}
}

func TestBenchToolKernelOverhead(t *testing.T) {
	if err := run([]string{"-exp", "overhead"}); err != nil {
		t.Errorf("overhead: %v", err)
	}
}

func TestBenchToolCompare(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	fresh := filepath.Join(dir, "new.json")
	payload := &experiment.WarmstartBench{
		BenchMeta:  experiment.NewBenchMeta("warmstart", "kernel7"),
		Identical:  true,
		ColdWallNS: 2_000_000_000,
		WarmWallNS: 1_000_000_000,
		Speedup:    2,
	}
	if _, err := experiment.WriteBenchFile(old, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := experiment.WriteBenchFile(fresh, payload); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "compare", "-old", old, "-new", fresh, "-tolerance", "10"}); err != nil {
		t.Fatalf("identical files: %v", err)
	}
	payload.WarmWallNS = 3_300_000_000
	if _, err := experiment.WriteBenchFile(fresh, payload); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "compare", "-old", old, "-new", fresh, "-tolerance", "10"}); err == nil {
		t.Fatal("3.3x slower warm pass did not fail the compare gate")
	}
	if err := run([]string{"-exp", "compare", "-old", old}); err == nil {
		t.Fatal("compare without -new did not error")
	}
}
