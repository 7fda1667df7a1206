package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs the first three jobs of every workload at seed 1:
// their output checks must pass and their result lines must equal the first
// three golden lines (a shorter job list is a prefix of the full one).
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer(true, false)
			s, err := w.prepare(tr, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := loadGolden(w.name, 1, w.jobs)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				t.Fatalf("no golden file for %s at seed 1", w.name)
			}
			for i := range s.specs {
				tr.begin(jobSpan)
				line, err := s.run(tr, i)
				tr.end()
				if err != nil {
					t.Fatalf("job %d (%s): %v", i, s.specs[i], err)
				}
				if line != golden[i] {
					t.Errorf("job %d result %q, golden %q", i, line, golden[i])
				}
			}
			if len(tr.open) != 0 {
				t.Errorf("%d spans left open", len(tr.open))
			}
		})
	}
}

// TestJobListsSeeded pins that a job list is a function of the seed alone.
func TestJobListsSeeded(t *testing.T) {
	const n, end = 100, 12_000_000
	gens := map[string]func(seed uint64) any{
		"fig5":     func(s uint64) any { return fig5Jobs(s, n) },
		"fig7":     func(s uint64) any { return fig7Jobs(s, n) },
		"campaign": func(s uint64) any { return campaignJobs(s, n, 8) },
		"seek":     func(s uint64) any { return seekJobs(s, n, end) },
	}
	for name, gen := range gens {
		// %v renders every field of the job structs, unexported ones too.
		a, b, c := fmt.Sprint(gen(1)), fmt.Sprint(gen(1)), fmt.Sprint(gen(2))
		if a != b {
			t.Errorf("%s: seed 1 gave two different job lists", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same job list", name)
		}
	}
	for seed := uint64(0); seed < 50; seed++ {
		if jobs := seekJobs(seed, n, end); jobs[0].op == opSave {
			t.Errorf("seed %d: seek job list starts with a save", seed)
		}
	}
}

// TestSelfTimes checks self-time and coverage arithmetic on hand-built
// nested spans: two jobs, one with a two-level call tree.
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: jobSpan, start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},
		{name: "b", start: ms(15), end: ms(25), parent: 1},
		{name: "c", start: ms(50), end: ms(90), parent: 0},
		{name: jobSpan, start: ms(100), end: ms(200), parent: -1, job: 1},
		{name: "a", start: ms(100), end: ms(200), parent: 4, job: 1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{jobSpan: ms(30), "a": ms(120), "b": ms(10), "c": ms(40)}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
	if c := layerCoverage(spans); c != 1-30.0/200 {
		t.Errorf("coverage = %v, want %v", c, 1-30.0/200)
	}
	if d := durationsMs(spans, "a"); !slices.Equal(d, []float64{30, 100}) {
		t.Errorf("durations of a = %v", d)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		sample []float64
		p      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.9, 3.7},
		{[]float64{1, 2, 3, 4}, 1, 4},
	}
	for _, c := range cases {
		if got := percentile(c.sample, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sample, c.p, got, c.want)
		}
	}
}

// TestScaleToNominal runs 40 identical jobs through a host that halves its
// speed after job 20 and has one interrupted reference sample: away from the
// switch, every scaled job time is the nominal one.
func TestScaleToNominal(t *testing.T) {
	var jobMs, refMs []float64
	for i := 0; i < 40; i++ {
		slow := 1.0
		if i >= 20 {
			slow = 2
		}
		jobMs = append(jobMs, 3*slow)
		refMs = append(refMs, refNominalMs*slow)
	}
	refMs[7] *= 10
	got := scaleToNominal(jobMs, refMs)
	for i, v := range got {
		if (i < 20-refWindow || i >= 20+refWindow) && math.Abs(v-3) > 1e-12 {
			t.Errorf("job %d scaled to %v ms, want 3", i, v)
		}
	}
}

// TestOutputMatchesBenchmarkJSON runs a one-second fig7 benchmark untraced
// and traced and checks that the final line carries exactly the metrics
// BENCHMARK.json declares, with the declared units.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]decl{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "fig7", "--seconds", "1", "--trace", trace,
			"--trace-out", filepath.Join(t.TempDir(), "trace.json")}
		if err := run(args, &out, os.Stderr); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name)
			for _, d := range want {
				if d.Name == name && d.Unit != m.Unit {
					t.Errorf("trace %s: %s has unit %q, BENCHMARK.json says %q", trace, name, m.Unit, d.Unit)
				}
			}
		}
		var names []string
		for _, d := range want {
			names = append(names, d.Name)
		}
		sort.Strings(got)
		sort.Strings(names)
		if !slices.Equal(got, names) {
			t.Errorf("trace %s: metrics %v, BENCHMARK.json declares %v", trace, got, names)
		}
	}
}
