package core

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/snapshot"
)

// snapshotHeader is the size of a snapshot blob's header: magic, schema
// version, payload length and the payload's SHA-256 (see package snapshot).
const snapshotHeader = 4 + 4 + 8 + sha256.Size

// seal wraps a snapshot payload, however doctored, in a header with the
// right magic, version, length and hash, so it reaches the payload decoder.
func seal(payload []byte) []byte {
	blob := make([]byte, snapshotHeader, snapshotHeader+len(payload))
	copy(blob, "SSNP")
	binary.LittleEndian.PutUint32(blob[4:], snapshot.SchemaVersion)
	binary.LittleEndian.PutUint64(blob[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[16:], sum[:])
	return append(blob, payload...)
}

// FuzzRestore: a restore must survive hostile snapshot bytes, such as a
// file handed to `sensmart-sim -restore`. Each input is a snapshot payload,
// sealed so it passes the integrity check. A state that decodes is restored
// into a fork of the system that wrote the seeds, and the fork runs 10 k
// cycles. Any stage may refuse the input with an error; none may panic.
// The seeds are that system's payloads at boot and after a short run, plus
// two states the profiler once restored unchecked: a stack-ring cursor past
// the ring, which the next stack sample indexed out of range, and a ring
// holding one sample more than its capacity.
func FuzzRestore(f *testing.F) {
	sys, _ := observed(f)
	add := func(st *snapshot.State) {
		blob, err := snapshot.Encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob[snapshotHeader:])
	}
	if err := sys.Boot(); err != nil {
		f.Fatal(err)
	}
	st, err := sys.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	add(st)
	if err := sys.Run(30_000); err != nil {
		f.Fatal(err)
	}
	if st, err = sys.Snapshot(); err != nil {
		f.Fatal(err)
	}
	add(st)
	// By now the first counter task (after the machine's entry) has filled
	// its 16-sample ring and wrapped.
	ts := &st.Profile.Tasks[1]
	if !ts.Wrapped || len(ts.Ring) != 16 {
		f.Fatalf("task %s holds %d stack samples, wrapped %v; want a full ring", ts.Name, len(ts.Ring), ts.Wrapped)
	}
	ts.RingPos = 255
	add(st)
	ts.RingPos = 0
	ts.Ring = append(ts.Ring, ts.Ring[0])
	add(st)

	f.Fuzz(func(t *testing.T, p []byte) {
		st, err := snapshot.Decode(seal(p))
		if err != nil {
			return
		}
		fork, err := sys.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := fork.Restore(st); err != nil {
			return
		}
		// A hostile state may end the run in an error; only a panic fails.
		_ = fork.Run(fork.Machine().Cycles() + 10_000)
	})
}

// TestSnapshotEncodesInOneAllocation: a snapshot of the seven kernel
// benchmarks 8 M cycles into their run, the node the seek benchmark saves,
// encodes in one allocation, although its radio log has grown it past twice
// the data segment: snapshot.Encode sizes its buffer for the device logs.
func TestSnapshotEncodesInOneAllocation(t *testing.T) {
	sys := NewSystem()
	for _, kb := range progs.KernelBenchmarks() {
		if _, err := sys.Deploy(kb.Program); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(8_000_000); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) <= snapshotHeader+2*mcu.DataSize {
		t.Fatalf("the snapshot is %d bytes; it must outgrow twice the data segment to prove anything", len(blob))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := snapshot.Encode(st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("encoding a %d-byte snapshot allocates %.0f times, want 1", len(blob), allocs)
	}
}
