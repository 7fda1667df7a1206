package timetravel

import (
	"repro/internal/kernel"
	"repro/internal/mcu"
)

// RegDelta is one CPU register that differs between a clean and a trial
// replay at the divergence boundary.
type RegDelta struct {
	Reg          uint8
	Clean, Trial byte
}

// MemDelta is one contiguous span of data memory that differs between the
// two replays at the divergence boundary.
type MemDelta struct {
	Addr uint16
	Len  uint16
}

// maxMemDeltas bounds how many differing spans a Divergence enumerates; the
// total differing byte count is always exact.
const maxMemDeltas = 16

// Divergence is the outcome of lockstep-comparing a clean replay against a
// perturbed one.
type Divergence struct {
	// Diverged reports whether the two trajectories ever differed within the
	// window. When false, the deltas below still describe the final states —
	// the footprint of a perturbation that never influenced execution.
	Diverged bool
	// Cycle is the boundary clock at which the first difference was seen
	// (the trial side's clock when the clocks themselves diverged).
	Cycle            uint64
	CleanPC, TrialPC uint32
	CleanSP, TrialSP uint16
	CleanSREG        byte
	TrialSREG        byte
	CleanEnded       bool
	TrialEnded       bool
	Regs             []RegDelta
	Mem              []MemDelta
	MemBytes         int // exact count of differing data-memory bytes
}

// FirstDivergence advances two deterministic replays in lockstep, one
// instruction boundary at a time starting from cycle from, and reports the
// first boundary where their states differ: clock, PC, SP, SREG, or any CPU
// register. Both kernels must be booted or restored, and their runs must
// agree up to from (the perturbation under study fires at or after it);
// they may start from different cycles before it. limit bounds the
// trial side's clock (0 = none). Neither kernel should have a trace recorder
// attached — the per-boundary Run calls would flood it with budget events.
func FirstDivergence(clean, trial *kernel.Kernel, from, limit uint64) (Divergence, error) {
	mc, mt := clean.M, trial.M
	if err := clean.Run(from); err != nil {
		return Divergence{}, err
	}
	if err := trial.Run(from); err != nil {
		return Divergence{}, err
	}
	for {
		if statesDiffer(mc, mt) {
			return report(mc, mt, true), nil
		}
		if limit != 0 && mt.Cycles() >= limit {
			break
		}
		ca, err := stepBoundary(clean)
		if err != nil {
			return Divergence{}, err
		}
		cb, err := stepBoundary(trial)
		if err != nil {
			return Divergence{}, err
		}
		if !ca && !cb {
			break // both replays ended in agreement
		}
		if ca != cb {
			// One side ended while the other kept running: that is the
			// divergence, at the surviving side's clock.
			return report(mc, mt, true), nil
		}
	}
	return report(mc, mt, false), nil
}

// stepBoundary advances a kernel one instruction boundary; advanced is false
// once the workload is done or the machine has halted.
func stepBoundary(k *kernel.Kernel) (advanced bool, err error) {
	m := k.M
	if k.Done() {
		return false, nil
	}
	if halted, _ := m.Halted(); halted {
		return false, nil
	}
	c := m.Cycles()
	if err := k.Run(c + 1); err != nil {
		return false, err
	}
	return m.Cycles() > c, nil
}

func statesDiffer(mc, mt *mcu.Machine) bool {
	if mc.Cycles() != mt.Cycles() || mc.PC() != mt.PC() ||
		mc.SP() != mt.SP() || mc.SREG() != mt.SREG() {
		return true
	}
	for r := uint8(0); r < 32; r++ {
		if mc.Reg(r) != mt.Reg(r) {
			return true
		}
	}
	return false
}

func report(mc, mt *mcu.Machine, diverged bool) Divergence {
	d := Divergence{
		Diverged:  diverged,
		Cycle:     mt.Cycles(),
		CleanPC:   mc.PC(),
		TrialPC:   mt.PC(),
		CleanSP:   mc.SP(),
		TrialSP:   mt.SP(),
		CleanSREG: mc.SREG(),
		TrialSREG: mt.SREG(),
	}
	halted, _ := mc.Halted()
	d.CleanEnded = halted
	halted, _ = mt.Halted()
	d.TrialEnded = halted
	for r := uint8(0); r < 32; r++ {
		if a, b := mc.Reg(r), mt.Reg(r); a != b {
			d.Regs = append(d.Regs, RegDelta{Reg: r, Clean: a, Trial: b})
		}
	}
	// Coalesce differing data-memory bytes (above the register file) into
	// spans; the span list is capped, the byte count is exact.
	var open bool
	var start uint16
	flush := func(end uint16) {
		if open && len(d.Mem) < maxMemDeltas {
			d.Mem = append(d.Mem, MemDelta{Addr: start, Len: end - start})
		}
		open = false
	}
	for a := uint16(32); a < mcu.DataSize; a++ {
		if mc.Peek(a) != mt.Peek(a) {
			d.MemBytes++
			if !open {
				open, start = true, a
			}
		} else {
			flush(a)
		}
	}
	flush(mcu.DataSize)
	return d
}
