package kernel

import (
	"reflect"
	"testing"

	"repro/internal/progs"
	"repro/internal/rewriter"
)

// TestAddTaskLeavesNaturalizedAlone admits one naturalized program into two
// kernels, twice into each, and runs both to completion. The program must
// still deep-equal an independent rewrite taken before: kernels only read
// what they admit, so callers may share one naturalized program across
// systems without cloning it.
func TestAddTaskLeavesNaturalizedAlone(t *testing.T) {
	prog := progs.CRC(2)
	nat, err := rewriter.Rewrite(prog, rewriter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := rewriter.Rewrite(prog, rewriter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nat, before) {
		t.Fatal("two rewrites of one program differ; the copy proves nothing")
	}
	for i := 0; i < 2; i++ {
		k, tasks := bootKernel(t, Config{}, nat, nat)
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			if task.ExitReason != "exited" {
				t.Fatalf("kernel %d: task %s ended %q", i, task.Name, task.ExitReason)
			}
		}
	}
	if !reflect.DeepEqual(nat, before) {
		t.Error("admitting and running the naturalized program changed it")
	}
}
