package kernel

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// TestRestoreStateRejects edits a two-task snapshot one way per row and
// requires RestoreState to refuse it with an error naming the problem, and
// the unedited snapshot to restore.
func TestRestoreStateRejects(t *testing.T) {
	cfg := Config{SliceCycles: 10_000}
	natA, natB := naturalize(t, "spinA", spinSrc), naturalize(t, "spinB", spinSrc)
	src, _ := bootKernel(t, cfg, natA, natB)
	if err := src.Run(200_000); err != nil {
		t.Fatal(err)
	}
	base := src.CaptureState()
	if base.Cur < 0 || len(base.Regions) != 2 {
		t.Fatalf("source snapshot has current task %d and %d regions; want a running two-task system",
			base.Cur, len(base.Regions))
	}
	other := 1 - base.Cur // the task that is not running
	first, second := base.Regions[0], base.Regions[1]

	// target admits the source's tasks (or the named ones) without booting.
	target := func(t *testing.T, names ...string) *Kernel {
		k := New(mcu.New(), cfg)
		nats := []*rewriter.Naturalized{natA, natB}
		if names == nil {
			names = []string{"spinAA", "spinBB"}
		}
		for i, name := range names {
			if _, err := k.AddTask(name, nats[i]); err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	rows := []struct {
		name   string
		edit   func(st *KernelState)
		target func(t *testing.T) *Kernel
		want   string // "" = restores
	}{
		{name: "unedited", want: ""},
		{name: "booted target", want: "booted kernel", target: func(t *testing.T) *Kernel {
			k := target(t)
			if err := k.Boot(); err != nil {
				t.Fatal(err)
			}
			return k
		}},
		{name: "pre-boot snapshot", want: "predates boot", edit: func(st *KernelState) { st.Booted = false }},
		{name: "task count", want: "snapshot has 2 tasks, target admitted 1",
			target: func(t *testing.T) *Kernel { return target(t, "spinAA") }},
		{name: "layout", want: "memory layout", edit: func(st *KernelState) { st.AppEnd -= 16 }},
		{name: "current task", want: "current-task index 2 out of range", edit: func(st *KernelState) { st.Cur = 2 }},
		{name: "task identity", want: `snapshot task 1 is "spinBB"`,
			target: func(t *testing.T) *Kernel { return target(t, "spinAA", "other") }},
		{name: "unknown task", want: "unknown task 7", edit: func(st *KernelState) { st.Regions[1] = 7 }},
		{name: "listed twice", want: "region twice", edit: func(st *KernelState) { st.Regions[1] = first }},
		{name: "out of order", want: "is listed after", edit: func(st *KernelState) {
			st.Regions[0], st.Regions[1] = second, first
		}},
		{name: "overlap", want: "overlaps", edit: func(st *KernelState) { st.Tasks[second].PL = st.Tasks[first].PU - 1 }},
		{name: "outside the app area", want: "outside the app area", edit: func(st *KernelState) {
			st.Tasks[first].PL = st.AppBase - 1
		}},
		{name: "p_u 0xFFF0", want: "outside the app area", edit: func(st *KernelState) { st.Tasks[second].PU = 0xFFF0 }},
		{name: "p_l above p_h", want: "want p_l <= p_h <= p_u", edit: func(st *KernelState) {
			st.Tasks[first].PL = st.Tasks[first].PH + 1
		}},
		{name: "p_h above p_u", want: "want p_l <= p_h <= p_u", edit: func(st *KernelState) {
			st.Tasks[first].PH = st.Tasks[first].PU + 1
		}},
		{name: "saved SP 0xFFF0", want: "saved SP 0xfff0", edit: func(st *KernelState) { st.Tasks[other].SPPhys = 0xFFF0 }},
		{name: "saved SP below p_h-1", want: "saved SP", edit: func(st *KernelState) {
			st.Tasks[other].SPPhys = st.Tasks[other].PH - 2
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st := *base
			st.Tasks = slices.Clone(base.Tasks)
			st.Regions = slices.Clone(base.Regions)
			if row.edit != nil {
				row.edit(&st)
			}
			k := target(t)
			if row.target != nil {
				k = row.target(t)
			}
			err := k.RestoreState(&st)
			switch {
			case row.want == "" && err != nil:
				t.Fatalf("unedited snapshot refused: %v", err)
			case row.want == "":
			case err == nil:
				t.Fatalf("restored; want an error containing %q", row.want)
			case !strings.Contains(err.Error(), row.want):
				t.Fatalf("error %q, want it to contain %q", err, row.want)
			}
		})
	}
}
