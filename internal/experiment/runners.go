package experiment

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/rewriter"
)

// natCacheKey identifies one rewrite: sweeps re-naturalize the same assembled
// program under the same rewriter configuration at every point, so the
// (name, config) pair is the natural memoization key.
type natCacheKey struct {
	name string
	cfg  rewriter.Config
}

// natCacheCap bounds the rewrite cache. Sweeps use a handful of programs and
// at most a few rewriter configurations, so 64 entries is generous; if an
// unusual caller exceeds it we simply rewrite without caching rather than
// grow without bound.
const natCacheCap = 64

var natCache = struct {
	mu sync.Mutex
	m  map[natCacheKey]*rewriter.Naturalized
}{m: make(map[natCacheKey]*rewriter.Naturalized)}

// sameProgram reports whether p matches the program a cached rewrite was
// built from. Program names are not globally unique (workload sizes vary
// across experiments), so a hit is only trusted after comparing content.
func sameProgram(a, b *image.Program) bool {
	return a.Entry == b.Entry &&
		a.HeapBase == b.HeapBase &&
		a.HeapSize == b.HeapSize &&
		a.StackReserve == b.StackReserve &&
		slices.Equal(a.Words, b.Words) &&
		slices.Equal(a.DataInit, b.DataInit)
}

// naturalize is a memoizing rewriter.Rewrite: the first call for a given
// (program, config) pays for the rewrite, later calls hand out independent
// clones. Rewriting is deterministic, so a clone of a cached result is
// indistinguishable from a fresh rewrite.
func naturalize(p *image.Program, cfg rewriter.Config) (*rewriter.Naturalized, error) {
	key := natCacheKey{name: p.Name, cfg: cfg}
	natCache.mu.Lock()
	cached, ok := natCache.m[key]
	natCache.mu.Unlock()
	if ok && sameProgram(p, cached.Orig) {
		return cached.Clone(), nil
	}
	nat, err := rewriter.Rewrite(p, cfg)
	if err != nil {
		return nil, err
	}
	natCache.mu.Lock()
	if len(natCache.m) < natCacheCap || ok {
		natCache.m[key] = nat.Clone()
	}
	natCache.mu.Unlock()
	return nat, nil
}

// senSmartRun is the outcome of running programs to completion under the
// SenSmart kernel.
type senSmartRun struct {
	K      *kernel.Kernel
	Cycles uint64
	Idle   uint64
}

// runSenSmart naturalizes the programs, boots a kernel with one task per
// program, and runs until all tasks exit (or the cycle limit).
func runSenSmart(cfg kernel.Config, limit uint64, programs ...*image.Program) (*senSmartRun, error) {
	m := mcu.New()
	k := kernel.New(m, cfg)
	for i, p := range programs {
		nat, err := naturalize(p, rewriter.Config{})
		if err != nil {
			return nil, err
		}
		if _, err := k.AddTask(fmt.Sprintf("%s#%d", p.Name, i), nat); err != nil {
			return nil, err
		}
	}
	if err := k.Boot(); err != nil {
		return nil, err
	}
	if err := k.Run(limit); err != nil {
		return nil, err
	}
	if !k.Done() {
		return nil, fmt.Errorf("experiment: %d-cycle limit hit before completion", limit)
	}
	return &senSmartRun{K: k, Cycles: m.Cycles(), Idle: m.IdleCycles()}, nil
}

// runNativeCycles executes a program bare-metal and returns its cycle count.
func runNativeCycles(p *image.Program, limit uint64) (uint64, uint64, error) {
	m := mcu.New()
	if err := m.LoadFlash(0, p.Words); err != nil {
		return 0, 0, err
	}
	for i, b := range p.DataInit {
		m.Poke(p.HeapBase+uint16(i), b)
	}
	m.SetPC(p.Entry)
	err := m.Run(limit)
	var f *mcu.Fault
	if errors.As(err, &f) && f.Kind == mcu.FaultBreak {
		return m.Cycles(), m.IdleCycles(), nil
	}
	if err == nil {
		return 0, 0, fmt.Errorf("experiment: native run of %s hit the cycle limit", p.Name)
	}
	return 0, 0, err
}
