package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one timed interval: a whole job, or one call the benchmark makes
// into a layer of the simulator.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span; -1 for a job span
	job        int
}

// tracer records spans and layer counters in memory and, for CPU profiles,
// sets the pprof label layer=<name> while each span is open. All of it is off
// in the untraced run, where begin and end cost two branches.
type tracer struct {
	record bool
	label  bool

	epoch time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
	job   int
	ctxs  []context.Context
	c     counters
}

func newTracer(record, label bool) *tracer {
	t := &tracer{record: record, label: label, epoch: time.Now()}
	if label {
		t.ctxs = []context.Context{context.Background()}
	}
	return t
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	if t.record {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		t.open = append(t.open, len(t.spans))
		t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, job: t.job})
	}
	if t.label {
		ctx := pprof.WithLabels(t.ctxs[len(t.ctxs)-1], pprof.Labels("layer", name))
		t.ctxs = append(t.ctxs, ctx)
		pprof.SetGoroutineLabels(ctx)
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t.record {
		n := len(t.open) - 1
		t.spans[t.open[n]].end = time.Since(t.epoch)
		t.open = t.open[:n]
	}
	if t.label {
		t.ctxs = t.ctxs[:len(t.ctxs)-1]
		pprof.SetGoroutineLabels(t.ctxs[len(t.ctxs)-1])
	}
}

// jobSpan is the name of the span enclosing one whole job.
const jobSpan = "job"

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover. Spans nest strictly (one goroutine), so children
// never overlap one another.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// jobTime sums the durations of the job spans.
func jobTime(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.name == jobSpan {
			total += s.end - s.start
		}
	}
	return total
}

// layerCoverage is the share of summed job time that layer spans cover: one
// minus the job spans' own self time over their total duration.
func layerCoverage(spans []span) float64 {
	total := jobTime(spans)
	if total == 0 {
		return 0
	}
	return 1 - float64(selfTimes(spans)[jobSpan])/float64(total)
}

// durationsMs returns the durations of every span with the given name, in
// milliseconds, sorted ascending.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	sort.Float64s(out)
	return out
}

// writeChrome writes spans as Chrome trace_event JSON (open it in Perfetto or
// chrome://tracing). Every span becomes one complete ("X") event on a single
// track, so the nesting shows as a flame chart per job.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"job": s.job, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile interpolates linearly between the closest ranks of an ascending
// sample (the "type 7" estimator); p is in [0, 1].
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
