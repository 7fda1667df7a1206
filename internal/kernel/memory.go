package kernel

import (
	"fmt"

	"repro/internal/trace"
)

// regionIndex locates t in the address-ordered region list.
func (k *Kernel) regionIndex(t *Task) int {
	for i, r := range k.regions {
		if r == t {
			return i
		}
	}
	return -1
}

// moveBlock relocates n bytes of task memory and accounts for the copy.
func (k *Kernel) moveBlock(dst, src, n uint16) {
	if n == 0 || dst == src {
		return
	}
	k.M.CopyData(dst, src, n)
	k.Stats.RelocatedBytes += uint64(n)
	k.M.AddCycles(uint64(n) * CostRelocPerByte)
	k.Stats.RelocCycles += uint64(n) * CostRelocPerByte
}

// growStack enlarges t's stack area by at least need bytes by relocating
// neighbouring regions (Section IV-C3, Figure 3). It returns false when no
// donor — neither a task with surplus stack nor trailing free memory — can
// supply the space.
func (k *Kernel) growStack(t *Task, need uint16) bool {
	if k.Cfg.DisableRelocation {
		return false
	}
	m := k.regionIndex(t)
	if m < 0 {
		return false
	}
	// Tasks with a history of deep stacks prefer grants of half their peak
	// at once — fewer relocation events for the same space — but fall back
	// to the hard minimum when donors are tight.
	want := max(need, t.MaxStackUsed/2)
	// Donor selection: the task with the most surplus stack provides half
	// of it; trailing free memory acts as an additional donor. SenSmart is
	// "conservative on memory relocations": a donor never gives up space
	// below its own stack high-water mark (plus a small margin), which
	// stops tasks with alternating deep phases from thrashing stack space
	// back and forth.
	bestIdx, bestDelta := -1, uint16(0)
	for i, r := range k.regions {
		if i == m || r.state == TaskTerminated {
			continue
		}
		avail := r.freeStack()
		// The floor keeps half the donor's historical peak (plus margin):
		// enough hysteresis to avoid thrashing, while still letting tasks
		// time-share stack space their deep phases need only transiently.
		floor := max(r.StackUsed(), r.MaxStackUsed/2) + 16
		if r.StackAlloc() > floor {
			if headroom := r.StackAlloc() - floor; avail > headroom {
				avail = headroom
			}
		} else {
			avail = 0
		}
		if avail/2 > bestDelta {
			bestIdx, bestDelta = i, avail/2
		}
	}
	trailing := k.FreeMemory()
	trailingDelta := trailing
	if trailingDelta > 4*want && trailingDelta > 64 {
		// Don't hand a single task all remaining memory at once.
		trailingDelta = max(4*want, 64)
	}
	// Prefer a donor that covers the comfortable grant; accept one that
	// covers the hard minimum; otherwise give up.
	useTrailing := false
	switch {
	case trailingDelta >= want && (bestDelta < want || trailingDelta >= bestDelta):
		useTrailing = true
	case bestDelta >= want:
		// use bestIdx
	case trailingDelta >= need && (bestDelta < need || trailingDelta >= bestDelta):
		useTrailing = true
	case bestDelta >= need:
		// use bestIdx
	default:
		return false
	}

	k.M.AddCycles(CostStackReloc)
	k.Stats.Relocations++
	k.Stats.RelocCycles += CostStackReloc
	t.Relocations++
	relocBefore := k.Stats.RelocCycles - CostStackReloc

	var granted uint16
	var donor string
	if useTrailing {
		k.shiftUpInto(m, len(k.regions), trailingDelta)
		granted, donor = trailingDelta, "from free memory"
	} else if bestIdx > m {
		k.shiftUpInto(m, bestIdx, bestDelta)
		granted, donor = bestDelta, "from "+k.regions[bestIdx].Name+" (above)"
	} else {
		k.shiftDownInto(m, bestIdx, bestDelta)
		granted, donor = bestDelta, "from "+k.regions[bestIdx].Name+" (below)"
	}
	k.syncAfterMove()
	relocCost := k.Stats.RelocCycles - relocBefore
	t.KernelCycles += relocCost
	if k.prof != nil {
		// The machine PC still points at the access that triggered the
		// growth (trap site or faulted push).
		k.prof.OnReloc(int32(t.ID), k.M.PC(), uint64(granted), relocCost)
	}
	k.ev(trace.Event{Kind: trace.KindReloc, Task: int32(t.ID),
		Arg: uint64(granted), Arg2: relocCost, Detail: donor})
	return true
}

// freeStack returns the task's unused stack bytes (between heap top and the
// current stack top).
func (t *Task) freeStack() uint16 {
	sp := t.spPhys
	if sp >= t.region.PU { // empty stack
		return t.region.PU - t.region.PH
	}
	if sp < t.region.PH {
		return 0
	}
	return sp + 1 - t.region.PH
}

// shiftUpInto grows region m's stack by delta, taking the space from donor
// region dn above it (dn == len(regions) means the trailing free space).
// Blocks move upward, processed top-down so sources are never clobbered.
func (k *Kernel) shiftUpInto(m, dn int, delta uint16) {
	if dn < len(k.regions) {
		n := k.regions[dn]
		// Donor keeps its stack contents in place; only its heap slides up,
		// shrinking its free stack gap.
		k.moveBlock(n.region.PL+delta, n.region.PL, n.region.PH-n.region.PL)
		n.region.PL += delta
		n.region.PH += delta
	}
	for i := dn - 1; i > m; i-- {
		r := k.regions[i]
		k.moveBlock(r.region.PL+delta, r.region.PL, r.region.PU-r.region.PL)
		r.region.PL += delta
		r.region.PH += delta
		r.region.PU += delta
		r.spPhys += delta
	}
	t := k.regions[m]
	used := t.StackUsed()
	k.moveBlock(t.spPhys+1+delta, t.spPhys+1, used)
	t.region.PU += delta
	t.spPhys += delta
}

// shiftDownInto grows region m's stack by delta, taking the space from donor
// region dn below it. Blocks move downward, processed bottom-up.
func (k *Kernel) shiftDownInto(m, dn int, delta uint16) {
	n := k.regions[dn]
	used := n.StackUsed()
	k.moveBlock(n.spPhys+1-delta, n.spPhys+1, used)
	n.region.PU -= delta
	n.spPhys -= delta
	for i := dn + 1; i < m; i++ {
		r := k.regions[i]
		k.moveBlock(r.region.PL-delta, r.region.PL, r.region.PU-r.region.PL)
		r.region.PL -= delta
		r.region.PH -= delta
		r.region.PU -= delta
		r.spPhys -= delta
	}
	t := k.regions[m]
	k.moveBlock(t.region.PL-delta, t.region.PL, t.region.PH-t.region.PL)
	t.region.PL -= delta
	t.region.PH -= delta
}

// syncAfterMove refreshes machine state and SP shadows after regions moved.
func (k *Kernel) syncAfterMove() {
	for _, r := range k.regions {
		r.spShadow = r.logicalSP()
		if k.prof != nil {
			k.prof.UpdateRegion(int32(r.ID), r.region.PL, r.region.PH, r.region.PU)
		}
	}
	if cur := k.Current(); cur != nil {
		k.M.SetSP(cur.spPhys)
		k.M.SetGuard(cur.region.PL, cur.region.PU)
	}
}

// releaseRegion removes a terminated task's region, sliding the regions
// above it down so that all free memory pools at the top of the application
// area (keeping the region list contiguous).
func (k *Kernel) releaseRegion(t *Task) {
	idx := k.regionIndex(t)
	if idx < 0 {
		return
	}
	size := t.region.PU - t.region.PL
	for i := idx + 1; i < len(k.regions); i++ {
		r := k.regions[i]
		k.moveBlock(r.region.PL-size, r.region.PL, r.region.PU-r.region.PL)
		r.region.PL -= size
		r.region.PH -= size
		r.region.PU -= size
		r.spPhys -= size
	}
	k.regions = append(k.regions[:idx], k.regions[idx+1:]...)
	k.syncAfterMove()
}

// faultTask terminates a task for an invalid memory access ("accesses beyond
// a task's memory region are intercepted and treated as invalid
// instructions", Section IV-C2).
func (k *Kernel) faultTask(t *Task, logical uint16) {
	pc := k.M.PC() // services fault before setting the continuation PC
	if k.Cfg.Trace != nil {
		k.Cfg.Trace.Emit(trace.Event{Cycle: k.M.Cycles(), Kind: trace.KindMemFault,
			Task: int32(t.ID), Arg: uint64(logical), PC: pc, Detail: k.sym.Name(pc)})
	}
	reason := fmt.Sprintf("invalid logical address %#x at pc %#x in %s",
		logical, pc, k.sym.Name(pc))
	k.recordFault(t, "invalid logical address", pc, reason)
	k.terminate(t, reason)
}
