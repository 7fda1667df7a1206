package core

import (
	"fmt"

	"repro/internal/snapshot"
)

// Snapshot captures the system's complete execution state — machine, kernel,
// and whatever observers are attached — as a snapshot.State. Capturing is
// read-only: it never perturbs the run, so a checkpointed run's remaining
// trajectory (and its trace/telemetry/profile output) is byte-identical to
// an uncheckpointed one. The program image is not captured; the state refers
// to it (and an encoding carries its hash), and Restore validates it.
func (s *System) Snapshot() (*snapshot.State, error) {
	ms, err := s.machine.CaptureState()
	if err != nil {
		return nil, err
	}
	st := &snapshot.State{
		Machine: ms,
		Kernel:  s.kernel.CaptureState(),
	}
	if r := s.Trace(); r != nil {
		st.Trace = r.CaptureState()
	}
	if t := s.Telemetry(); t != nil {
		st.Telemetry = t.CaptureState()
	}
	if p := s.Profile(); p != nil {
		st.Profile = p.CaptureState()
	}
	if m := s.Energy(); m != nil {
		st.Energy = m.CaptureState()
	}
	return st, nil
}

// Restore applies a snapshot to a freshly built system in place of Boot. The
// target must be constructed the same way as the snapshot's source: the same
// options, the same observers attached, and the same programs deployed in
// the same order (the flash image and task table are cross-checked).
// After Restore, Run continues the computation exactly where the snapshot
// left it. A Fork of the source system is such a target, and it shares the
// source's flash image, micro-op cache and translated blocks copy-on-write
// instead of loading its own copy, so the image check is an identity check.
func (s *System) Restore(st *snapshot.State) error {
	if st == nil || st.Machine == nil || st.Kernel == nil {
		return fmt.Errorf("core: restore: snapshot is missing machine or kernel state")
	}
	switch {
	case (st.Trace != nil) != (s.Trace() != nil):
		return fmt.Errorf("core: restore: snapshot %s a trace recorder, target %s",
			hasHave(st.Trace != nil), hasHave(s.Trace() != nil))
	case (st.Telemetry != nil) != (s.Telemetry() != nil):
		return fmt.Errorf("core: restore: snapshot %s a telemetry sampler, target %s",
			hasHave(st.Telemetry != nil), hasHave(s.Telemetry() != nil))
	case (st.Profile != nil) != (s.Profile() != nil):
		return fmt.Errorf("core: restore: snapshot %s a profiler, target %s",
			hasHave(st.Profile != nil), hasHave(s.Profile() != nil))
	case (st.Energy != nil) != (s.Energy() != nil):
		return fmt.Errorf("core: restore: snapshot %s an energy meter, target %s",
			hasHave(st.Energy != nil), hasHave(s.Energy() != nil))
	}
	if err := s.kernel.RestoreState(st.Kernel); err != nil {
		return err
	}
	if err := s.machine.RestoreState(st.Machine); err != nil {
		return err
	}
	if st.Trace != nil {
		s.Trace().RestoreState(st.Trace)
	}
	if st.Telemetry != nil {
		if err := s.Telemetry().RestoreState(st.Telemetry); err != nil {
			return err
		}
	}
	if st.Profile != nil {
		if err := s.Profile().RestoreState(st.Profile); err != nil {
			return err
		}
	}
	if st.Energy != nil {
		s.Energy().RestoreState(st.Energy)
	}
	return nil
}

func hasHave(has bool) string {
	if has {
		return "has"
	}
	return "does not have"
}

// ArmCheckpoint arms a one-shot checkpoint: at the first instruction
// boundary whose cycle clock has reached at — the one a stepwise run
// reaches, whichever interpreter tier runs — the system captures a snapshot
// and hands it to fn (with the capture error, if any). Arming a checkpoint
// never perturbs the run: it only bounds the fused tier at that cycle. fn
// may call ArmCheckpoint again to chain a later checkpoint, and may call
// snapshot.Encode to persist the state; it must not call Run, Restore, or
// Boot on this system.
func (s *System) ArmCheckpoint(at uint64, fn func(st *snapshot.State, err error)) {
	s.machine.SetCheckpoint(at, func(uint64) {
		fn(s.Snapshot())
	})
}
