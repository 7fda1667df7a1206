package profile

import "fmt"

// PCCount is one non-zero cell of a task's per-address cycle histogram,
// stored sparsely: benchmarks touch a few hundred flash words out of 64 Ki.
type PCCount struct {
	PC     uint32
	Cycles uint64
}

// TaskProfState is the serializable profile of one task.
type TaskProfState struct {
	ID         int32
	Name       string
	PL, PH, PU uint16

	PCs   []PCCount
	Svc   [16]uint64
	Reloc uint64
	Intr  uint64

	NextSample uint64
	Ring       []StackSample
	RingPos    int
	Wrapped    bool
	Samples    uint64
	Peak       uint32
	Relocs     []RelocMark
}

// ProfilerState is the serializable state of a Profiler: the global cycle
// ledgers, every task's attribution histogram and stack flight-recorder
// ring, and the watchpoint log, so a restored run's pprof/folded exports are
// byte-identical to an uninterrupted one.
type ProfilerState struct {
	ClockHz       uint64
	StackInterval uint64
	StackRing     int
	WatchLimit    int

	Now        uint64
	Idle       uint64
	Switches   uint64
	Compaction uint64
	Boot       uint64
	Cur        int32

	Tasks       []TaskProfState
	Watches     []Watchpoint
	Hits        []WatchHit
	DroppedHits uint64
}

// CaptureState snapshots the profiler. Histograms are stored sparsely and
// every slice is copied, so the state stays valid while the profiler keeps
// accumulating.
func (p *Profiler) CaptureState() *ProfilerState {
	st := &ProfilerState{
		ClockHz:       p.o.ClockHz,
		StackInterval: p.o.StackInterval,
		StackRing:     p.o.StackRing,
		WatchLimit:    p.o.WatchLimit,
		Now:           p.now,
		Idle:          p.idle,
		Switches:      p.switches,
		Compaction:    p.compaction,
		Boot:          p.boot,
		Cur:           MachineTask,
		Tasks:         make([]TaskProfState, 0, len(p.order)),
		Watches:       append([]Watchpoint(nil), p.watches...),
		Hits:          append([]WatchHit(nil), p.hits...),
		DroppedHits:   p.droppedHits,
	}
	if p.cur != nil {
		st.Cur = p.cur.id
	}
	for _, id := range p.order {
		t := p.tasks[id]
		ts := TaskProfState{
			ID:         t.id,
			Name:       t.name,
			PL:         t.pl,
			PH:         t.ph,
			PU:         t.pu,
			Svc:        t.svc,
			Reloc:      t.reloc,
			Intr:       t.intr,
			NextSample: t.nextSample,
			Ring:       append([]StackSample(nil), t.ring...),
			RingPos:    t.ringPos,
			Wrapped:    t.wrapped,
			Samples:    t.samples,
			Peak:       t.peak,
			Relocs:     append([]RelocMark(nil), t.relocs...),
		}
		for pc, cyc := range t.pcs {
			if cyc != 0 {
				ts.PCs = append(ts.PCs, PCCount{PC: uint32(pc), Cycles: cyc})
			}
		}
		st.Tasks = append(st.Tasks, ts)
	}
	return st
}

// RestoreState replaces the profiler's contents with a captured state. The
// target must have been constructed with the same options (intervals, ring
// and watch capacities); tasks present in the state but not yet registered
// are created, and registered tasks absent from the state are an error —
// both profilers must descend from the same admission sequence.
func (p *Profiler) RestoreState(st *ProfilerState) error {
	if p.o.StackInterval != st.StackInterval || p.o.StackRing != st.StackRing ||
		p.o.WatchLimit != st.WatchLimit || p.o.ClockHz != st.ClockHz {
		return fmt.Errorf("profile: options (clock %d, stack %d/%d, watch %d) differ from snapshot's (clock %d, stack %d/%d, watch %d)",
			p.o.ClockHz, p.o.StackInterval, p.o.StackRing, p.o.WatchLimit,
			st.ClockHz, st.StackInterval, st.StackRing, st.WatchLimit)
	}
	if len(st.Tasks) < len(p.order) {
		return fmt.Errorf("profile: snapshot has %d tasks, target already registered %d",
			len(st.Tasks), len(p.order))
	}
	seen := make(map[int32]bool, len(st.Tasks))
	for i := range st.Tasks {
		ts := &st.Tasks[i]
		if seen[ts.ID] {
			return fmt.Errorf("profile: snapshot repeats task id %d", ts.ID)
		}
		seen[ts.ID] = true
		if i < len(p.order) && p.order[i] != ts.ID {
			return fmt.Errorf("profile: snapshot task order %d is id %d, target registered id %d",
				i, ts.ID, p.order[i])
		}
		t, ok := p.tasks[ts.ID]
		if !ok {
			t = p.register(ts.ID, ts.Name, ts.PL, ts.PH, ts.PU)
		}
		t.name = ts.Name
		t.pl, t.ph, t.pu = ts.PL, ts.PH, ts.PU
		clear(t.pcs)
		for _, pcc := range ts.PCs {
			if pcc.PC >= flashWords {
				return fmt.Errorf("profile: snapshot pc %#x out of flash range", pcc.PC)
			}
			t.pcs[pcc.PC] = pcc.Cycles
		}
		t.svc = ts.Svc
		t.reloc = ts.Reloc
		t.intr = ts.Intr
		t.nextSample = ts.NextSample
		// The ring fills by appending with its cursor at 0; only a full
		// ring wraps, overwriting at a cursor inside it.
		ringCap := 0
		if p.o.StackInterval != 0 {
			ringCap = p.o.StackRing
		}
		if len(ts.Ring) > ringCap {
			return fmt.Errorf("profile: snapshot task %d retains %d stack samples, over the %d-sample ring",
				ts.ID, len(ts.Ring), ringCap)
		}
		full := ringCap > 0 && len(ts.Ring) == ringCap
		if full && (ts.RingPos < 0 || ts.RingPos >= ringCap) || !full && (ts.RingPos != 0 || ts.Wrapped) {
			return fmt.Errorf("profile: snapshot task %d stack ring cursor %d (wrapped %v) is invalid for %d of %d samples",
				ts.ID, ts.RingPos, ts.Wrapped, len(ts.Ring), ringCap)
		}
		if ringCap != 0 {
			ring := make([]StackSample, len(ts.Ring), ringCap)
			copy(ring, ts.Ring)
			t.ring = ring
		} else {
			t.ring = nil
		}
		t.ringPos = ts.RingPos
		t.wrapped = ts.Wrapped
		t.samples = ts.Samples
		t.peak = ts.Peak
		t.relocs = append([]RelocMark(nil), ts.Relocs...)
	}
	p.now = st.Now
	p.idle = st.Idle
	p.switches = st.Switches
	p.compaction = st.Compaction
	p.boot = st.Boot
	if t, ok := p.tasks[st.Cur]; ok {
		p.cur = t
	} else {
		return fmt.Errorf("profile: snapshot current task %d unknown", st.Cur)
	}
	p.watches = append([]Watchpoint(nil), st.Watches...)
	p.hits = append([]WatchHit(nil), st.Hits...)
	p.droppedHits = st.DroppedHits
	return nil
}
