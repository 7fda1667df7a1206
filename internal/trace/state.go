package trace

// RecorderState is the serializable state of a Recorder: the retained event
// stream plus the drop ledger, so a restored run's final trace is
// byte-identical to an uninterrupted one.
type RecorderState struct {
	Limit   int
	Events  []Event
	Dropped uint64
}

// CaptureState snapshots the recorder. The event slice is copied in
// emission order, so the state stays valid while the recorder keeps
// recording.
func (r *Recorder) CaptureState() *RecorderState {
	return &RecorderState{
		Limit:   r.Limit,
		Events:  r.ordered(),
		Dropped: r.dropped,
	}
}

// RestoreState replaces the recorder's contents with a captured state,
// copying the event slice so recorder and state never alias. A full ring
// resumes overwriting from the oldest captured event.
func (r *Recorder) RestoreState(st *RecorderState) {
	r.Limit = st.Limit
	r.events = append([]Event(nil), st.Events...)
	r.head = 0
	r.dropped = st.Dropped
}
