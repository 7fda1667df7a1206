package faultinject

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rewriter"
	"repro/internal/trace"
)

// fullTraceTail is the reference for a forensic report's event tail: the
// traced replay records every event into an unbounded trace, and tasks are
// named from the spawn events in it. forensicReplay keeps only a ring of
// the newest events and names tasks through the kernel; both must render
// the same lines.
func fullTraceTail(t *testing.T, victimName string, victimNat, sentinelNat *rewriter.Naturalized,
	p plan, cycle uint64) []string {
	t.Helper()
	rec := trace.New()
	o, err := setupOnce(victimName, victimNat.Clone(), sentinelNat.Clone(),
		func(o *outcome) { armPlan(o, p) }, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.k.Run(cycle); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if n := len(evs); n > 0 && evs[n-1].Kind == trace.KindBudget {
		evs = evs[:n-1]
	}
	if len(evs) > forensicEvents {
		evs = evs[len(evs)-forensicEvents:]
	}
	names := trace.TaskNames(rec.Events())
	name := func(id int32) string {
		if n, ok := names[id]; ok {
			return n
		}
		return fmt.Sprintf("task%d", id)
	}
	var out []string
	for _, e := range evs {
		out = append(out, e.Format(name))
	}
	return out
}

// TestForensicTailMatchesFullTrace runs the seeded golden campaign over all
// eight benchmarks and, for every trial that carries a forensic report,
// rebuilds the event tail from a full trace of the same replay. The report's
// LastEvents must equal it line for line.
func TestForensicTailMatchesFullTrace(t *testing.T) {
	var reports, full int
	for i, b := range Benchmarks() {
		rep, err := RunBenchmark(b, goldenSpec, i)
		if err != nil {
			t.Fatal(err)
		}
		victimNat, err := rewriter.Rewrite(b.Program.Clone(), rewriter.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sentinelNat, err := rewriter.Rewrite(SentinelProgram(), rewriter.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range rep.Trials {
			if tr.Forensic == nil {
				continue
			}
			reports++
			p := drawPlan(goldenSpec, i, tr.Trial, rep.GoldenCycles)
			want := fullTraceTail(t, b.Name, victimNat, sentinelNat, p, tr.Forensic.DivergenceCycle)
			if !slices.Equal(tr.Forensic.LastEvents, want) {
				t.Errorf("%s trial %d: last events\n%q\nwant\n%q", b.Name, tr.Trial, tr.Forensic.LastEvents, want)
			}
			if len(want) == forensicEvents {
				full++
			}
		}
	}
	// The campaign must exercise the ring wrapping, not only short replays
	// whose whole trace fits.
	if reports == 0 || full == 0 {
		t.Fatalf("%d forensic reports, %d with a full %d-event tail; the check needs both", reports, full, forensicEvents)
	}
	t.Logf("%d forensic tails checked, %d full", reports, full)
}
