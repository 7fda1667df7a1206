package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Runner executes the evaluation harnesses with a configurable worker pool.
// Every sweep point (benchmark kernel, computation size, tree size) builds
// its own nodes — a core.System for SenSmart, a bare mcu.Machine for the
// native and t-kernel runs — so points are independent and can run on any
// worker; results are merged in sweep order, which makes the output
// byte-identical to a serial run regardless of worker count.
type Runner struct {
	// Concurrency is the number of workers a sweep fans out to.
	// 0 selects runtime.GOMAXPROCS(0); 1 forces the serial path.
	Concurrency int
	// Progress, when non-nil, receives one report per completed sweep point
	// (sweep name, point index, simulated cycles, wall time) — the live
	// feedback channel behind `sensmart-bench` progress lines and the
	// `-serve` dashboard. Reports fire from worker goroutines in completion
	// order; Progress serializes internally. nil disables reporting and
	// costs one pointer compare per point.
	Progress *telemetry.Progress
}

// workers resolves the effective worker count.
func (r Runner) workers() int {
	if r.Concurrency > 0 {
		return r.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

// runPoints computes fn(0..n-1) on up to `workers` goroutines and returns
// the results ordered by index — never by completion order. With workers
// <= 1 it runs everything inline on the caller's goroutine (the `-parallel
// 1` debugging mode: no goroutines, deterministic stepping under a
// debugger). On error the sweep stops handing out new indices, in-flight
// points finish, and the error of the lowest failing index is returned —
// the same error a serial run would surface.
// runProgress wraps a sweep's point function with per-point wall-clock
// timing and progress reporting. cyclesOf extracts the simulated-cycle
// measure from a completed point for the Mcyc/s rate (nil when the sweep
// has no natural cycle count). With a nil Progress the wrapper is the
// identity — the sweep pays nothing.
func runProgress[T any](r Runner, sweep string, n int, cyclesOf func(T) uint64, fn func(i int) (T, error)) func(i int) (T, error) {
	if r.Progress == nil {
		return fn
	}
	return func(i int) (T, error) {
		start := time.Now()
		v, err := fn(i)
		if err != nil {
			return v, err
		}
		var cycles uint64
		if cyclesOf != nil {
			cycles = cyclesOf(v)
		}
		r.Progress.Point(sweep, i+1, n, cycles, time.Since(start))
		return v, nil
	}
}

func runPoints[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	if workers > n {
		workers = n
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
