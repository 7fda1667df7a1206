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
		BenchMeta:     experiment.NewBenchMeta("warmstart", "kernel7"),
		SnapshotBytes: 7719,
		Identical:     true,
	}
	write := func(path string) {
		t.Helper()
		if _, err := experiment.WriteBenchFile(path, payload); err != nil {
			t.Fatal(err)
		}
	}
	write(old)
	write(fresh)
	if err := run([]string{"-exp", "compare", "-old", old, "-new", fresh}); err != nil {
		t.Fatalf("identical files: %v", err)
	}
	payload.SnapshotBytes++
	write(fresh)
	if err := run([]string{"-exp", "compare", "-old", old, "-new", fresh}); err == nil {
		t.Fatal("one more snapshot byte did not fail the compare gate")
	}
	payload.SnapshotBytes--
	payload.Identical = false
	write(fresh)
	if err := run([]string{"-exp", "compare", "-old", old, "-new", fresh}); err == nil {
		t.Fatal("an identical flip did not fail the compare gate")
	}
	if err := run([]string{"-exp", "compare", "-old", old}); err == nil {
		t.Fatal("compare without -new did not error")
	}
}
