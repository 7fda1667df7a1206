package faultinject

import (
	"fmt"

	"repro/internal/rewriter"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

// ForensicSchemaVersion stamps every forensic report; bump it when the
// report's fields or rendering change meaning.
const ForensicSchemaVersion = 1

// forensicEvents is how many trailing trace events a report carries.
const forensicEvents = 32

// forensicStackMax bounds the symbolized stack scan in a report.
const forensicStackMax = 12

// Forensic explains how a payload escaped: where the trial's trajectory
// first diverged from the clean replay and what the machine looked like
// there. Every field is deterministic — a report is byte-identical across
// reruns and worker counts. It is produced automatically for every
// non-contained verdict (kernel-compromise, cross-task-breach,
// silent-corruption).
type Forensic struct {
	SchemaVersion int    `json:"schema_version"`
	InjectedAt    uint64 `json:"injected_at"`
	// Diverged is false for pure data corruption: the perturbed bytes never
	// reached the CPU, so the two replays ran the same instructions end to
	// end and only the memory deltas below betray the injection.
	Diverged        bool     `json:"trajectory_diverged"`
	DivergenceCycle uint64   `json:"divergence_cycle"`
	PC              uint32   `json:"pc"`
	PCSymbol        string   `json:"pc_symbol"`
	CleanPC         uint32   `json:"clean_pc"`
	CleanPCSymbol   string   `json:"clean_pc_symbol"`
	Stack           []string `json:"stack,omitempty"`
	RegDelta        []string `json:"reg_delta,omitempty"`
	MemDelta        []string `json:"mem_delta,omitempty"`
	MemDeltaBytes   int      `json:"mem_delta_bytes"`
	LastEvents      []string `json:"last_events,omitempty"`
	Note            string   `json:"note,omitempty"`
}

// forensicReplay reconstructs how an escaped trial went wrong, in two
// passes over fresh deterministic replays:
//
//  1. A clean and a re-injected replay run in lockstep from the recorded
//     fire cycle until their states first differ (timetravel.FirstDivergence);
//     the lockstep endpoints supply the PCs, symbolized stack, and
//     register/memory deltas at the divergence boundary.
//  2. One more injected replay, this time with a trace ring attached, runs
//     straight to the divergence cycle to recover the last trace events
//     leading up to it.
func forensicReplay(victimName string, victimNat, sentinelNat *rewriter.Naturalized,
	limit uint64, p plan, firedAt uint64) (*Forensic, error) {
	clean, err := setupOnce(victimName, victimNat.Clone(), sentinelNat.Clone(), nil, nil)
	if err != nil {
		return nil, err
	}
	trial, err := setupOnce(victimName, victimNat.Clone(), sentinelNat.Clone(),
		func(o *outcome) { armPlan(o, p) }, nil)
	if err != nil {
		return nil, err
	}
	div, err := timetravel.FirstDivergence(clean.k, trial.k, firedAt, limit)
	if err != nil {
		return nil, fmt.Errorf("faultinject: forensic lockstep: %w", err)
	}

	sym := trial.k.Symbolizer()
	f := &Forensic{
		SchemaVersion:   ForensicSchemaVersion,
		InjectedAt:      firedAt,
		Diverged:        div.Diverged,
		DivergenceCycle: div.Cycle,
		PC:              div.TrialPC,
		PCSymbol:        sym.Name(div.TrialPC),
		CleanPC:         div.CleanPC,
		CleanPCSymbol:   clean.k.Symbolizer().Name(div.CleanPC),
		MemDeltaBytes:   div.MemBytes,
	}
	if !div.Diverged {
		f.Note = "no trajectory divergence: corrupted state never reached the CPU"
	}
	for _, rd := range div.Regs {
		f.RegDelta = append(f.RegDelta, fmt.Sprintf("r%d: %#02x -> %#02x", rd.Reg, rd.Clean, rd.Trial))
	}
	for _, md := range div.Mem {
		f.MemDelta = append(f.MemDelta, fmt.Sprintf("%#04x+%d", md.Addr, md.Len))
	}
	if t := trial.k.Current(); t != nil {
		_, _, pu := t.Region()
		for _, fr := range timetravel.StackFrames(trial.m, sym, trial.m.SP()+1, pu-1, forensicStackMax) {
			f.Stack = append(f.Stack, fmt.Sprintf("%#04x: -> %#05x %s", fr.Phys, fr.Target, sym.Name(fr.Target)))
		}
	}

	// The report needs only the tail, so the replay records into a ring one
	// event longer than it: the extra slot holds the budget stamp dropped
	// below.
	rec := trace.NewLimited(forensicEvents + 1)
	traced, err := setupOnce(victimName, victimNat.Clone(), sentinelNat.Clone(),
		func(o *outcome) { armPlan(o, p) }, rec)
	if err != nil {
		return nil, err
	}
	if err := traced.k.Run(div.Cycle); err != nil {
		return nil, fmt.Errorf("faultinject: forensic trace replay: %w", err)
	}
	evs := rec.Events()
	// Drop the budget stamp of the replay's own stop — it is an artifact of
	// halting at the divergence cycle, not part of the trial's history.
	if n := len(evs); n > 0 && evs[n-1].Kind == trace.KindBudget {
		evs = evs[:n-1]
	}
	if len(evs) > forensicEvents {
		evs = evs[len(evs)-forensicEvents:]
	}
	// The ring may have evicted the spawn events, so names come from the
	// kernel's task table rather than from the stream.
	for _, e := range evs {
		f.LastEvents = append(f.LastEvents, e.Format(traced.k.TaskName))
	}
	return f, nil
}

// NeedsForensic reports whether a verdict is non-contained and therefore
// owes the report a forensic explanation.
func NeedsForensic(verdict string) bool {
	switch verdict {
	case VerdictKernelCompromise, VerdictCrossTaskBreach, VerdictSilentCorruption:
		return true
	}
	return false
}
