package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/progs"
	"repro/internal/snapshot"
)

// WarmstartRow is one sweep point's final state fingerprint: the kernel
// gauges a BENCH consumer plots, plus a hash of the full Metrics rendering
// so "byte-identical to the cold run" is checked over the complete
// per-task/per-service breakdown, not just the headline counters.
type WarmstartRow struct {
	Budget          uint64 `json:"budget"`
	Cycles          uint64 `json:"cycles"`
	IdleCycles      uint64 `json:"idle_cycles"`
	Done            bool   `json:"done"`
	ContextSwitches int    `json:"context_switches"`
	Preemptions     int    `json:"preemptions"`
	BranchTraps     uint64 `json:"branch_traps"`
	Relocations     int    `json:"relocations"`
	RelocatedBytes  uint64 `json:"relocated_bytes"`
	Terminations    int    `json:"terminations"`
	UARTBytes       int    `json:"uart_bytes"`
	MetricsSHA256   string `json:"metrics_sha256"`
}

// WarmstartBench is the payload of BENCH_warmstart.json: the same budget
// sweep run cold (every point from cycle 0) and warm (fast-forwarded once to
// a shared checkpoint at PrefixCycles, then fanned out under the worker
// pool), with the identity verdict and the measured prefix-skip speedup.
type WarmstartBench struct {
	BenchMeta
	Workload      []string       `json:"workload"`
	PrefixCycles  uint64         `json:"prefix_cycles"`
	CheckpointAt  uint64         `json:"checkpoint_at"`
	SnapshotBytes int            `json:"snapshot_bytes"`
	Budgets       []uint64       `json:"budgets"`
	Cold          []WarmstartRow `json:"cold"`
	Warm          []WarmstartRow `json:"warm"`
	Identical     bool           `json:"identical"`
	ColdWallNS    int64          `json:"cold_wall_ns"`
	WarmWallNS    int64          `json:"warm_wall_ns"`
	Speedup       float64        `json:"speedup"`
}

// warmstartSystem builds a fresh system with the full benchmark suite
// deployed in suite order — the multi-task workload every sweep point (and
// the warm parent) shares.
func warmstartSystem() (*core.System, []string, error) {
	sys := core.NewSystem()
	var names []string
	for _, kb := range progs.KernelBenchmarks() {
		if _, err := sys.Deploy(kb.Program); err != nil {
			return nil, nil, fmt.Errorf("deploy %s: %w", kb.Name, err)
		}
		names = append(names, kb.Name)
	}
	return sys, names, nil
}

// warmstartRow runs sys to the absolute cycle budget and fingerprints the
// final state.
func warmstartRow(sys *core.System, budget uint64) (WarmstartRow, error) {
	if err := sys.Run(budget); err != nil {
		return WarmstartRow{}, err
	}
	m := sys.Machine()
	k := sys.Kernel()
	sum := sha256.Sum256([]byte(sys.Metrics().Render()))
	return WarmstartRow{
		Budget:          budget,
		Cycles:          m.Cycles(),
		IdleCycles:      m.IdleCycles(),
		Done:            sys.Done(),
		ContextSwitches: k.Stats.ContextSwitches,
		Preemptions:     k.Stats.Preemptions,
		BranchTraps:     k.Stats.BranchTraps,
		Relocations:     k.Stats.Relocations,
		RelocatedBytes:  k.Stats.RelocatedBytes,
		Terminations:    k.Stats.Terminations,
		UARTBytes:       len(m.UARTOutput()),
		MetricsSHA256:   hex.EncodeToString(sum[:]),
	}, nil
}

// BenchWarmstart measures the warm-checkpoint fan-out the snapshot subsystem
// exists for. Cold pass: every budget runs from cycle 0. Warm pass: one
// parent boots, runs to prefix, checkpoints; every budget then restores the
// serialized checkpoint into a fork of the parent (sharing its flash image
// copy-on-write) and runs only the suffix. Both passes use the same worker
// pool, so the speedup isolates the skipped prefix. points budgets are
// spaced one prefix apart starting at 2*prefix.
func (r Runner) BenchWarmstart(prefix uint64, points int) (*WarmstartBench, error) {
	if prefix == 0 {
		prefix = 2_000_000
	}
	if points <= 0 {
		points = 6
	}
	budgets := make([]uint64, points)
	for i := range budgets {
		budgets[i] = prefix * uint64(i+2)
	}
	out := &WarmstartBench{
		BenchMeta:    NewBenchMeta("warmstart", "kernel benchmark suite (multitask)"),
		PrefixCycles: prefix,
		Budgets:      budgets,
	}

	coldStart := time.Now()
	cold, err := runPoints(r.workers(), points, runProgress(r, "warmstart/cold", points,
		func(row WarmstartRow) uint64 { return row.Cycles },
		func(i int) (WarmstartRow, error) {
			sys, _, err := warmstartSystem()
			if err != nil {
				return WarmstartRow{}, err
			}
			if err := sys.Boot(); err != nil {
				return WarmstartRow{}, err
			}
			return warmstartRow(sys, budgets[i])
		}))
	if err != nil {
		return nil, fmt.Errorf("warmstart cold sweep: %w", err)
	}
	out.Cold = cold
	out.ColdWallNS = time.Since(coldStart).Nanoseconds()

	warmStart := time.Now()
	parent, names, err := warmstartSystem()
	if err != nil {
		return nil, err
	}
	out.Workload = names
	if err := parent.Boot(); err != nil {
		return nil, err
	}
	if err := parent.Run(prefix); err != nil {
		return nil, fmt.Errorf("warmstart prefix run: %w", err)
	}
	st, err := parent.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("warmstart checkpoint: %w", err)
	}
	out.CheckpointAt = st.Machine.Cycle
	blob, err := snapshot.Encode(st)
	if err != nil {
		return nil, err
	}
	out.SnapshotBytes = len(blob)
	// The restore path every variant takes is the serialized one — decode
	// from the bytes, not the in-memory State — so the sweep exercises
	// exactly what a -restore from disk would. Decoded once and shared:
	// Restore only reads the State, deep-copying what it keeps.
	decoded, err := snapshot.Decode(blob)
	if err != nil {
		return nil, err
	}
	warm, err := runPoints(r.workers(), points, runProgress(r, "warmstart/warm", points,
		func(row WarmstartRow) uint64 { return row.Cycles },
		func(i int) (WarmstartRow, error) {
			sys, err := parent.Fork()
			if err != nil {
				return WarmstartRow{}, err
			}
			if err := sys.Restore(decoded); err != nil {
				return WarmstartRow{}, err
			}
			return warmstartRow(sys, budgets[i])
		}))
	if err != nil {
		return nil, fmt.Errorf("warmstart warm sweep: %w", err)
	}
	out.Warm = warm
	out.WarmWallNS = time.Since(warmStart).Nanoseconds()

	out.Identical = true
	for i := range cold {
		if cold[i] != warm[i] {
			out.Identical = false
		}
	}
	if !out.Identical {
		return out, fmt.Errorf("warmstart: warm rows diverge from cold rows")
	}
	if out.WarmWallNS > 0 {
		out.Speedup = float64(out.ColdWallNS) / float64(out.WarmWallNS)
	}
	return out, nil
}
