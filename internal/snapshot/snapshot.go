// Package snapshot defines the versioned, integrity-hashed binary encoding
// of a complete simulated-node checkpoint: machine state (SRAM, registers,
// devices, pending interrupts, RNG streams), kernel state (task table,
// region geometry, cycle ledgers, fault log), and the attached observers'
// accumulated output (trace events, telemetry ring, profiler histograms).
//
// The program image is deliberately not part of a snapshot. Flash and the
// predecoded micro-op cache are immutable while running, so a snapshot
// carries only their SHA-256; a restore target deploys the same programs and
// the hash check proves the images match. In-process, a captured state
// refers to the frozen image it was taken against, and mcu.Machine.AdoptImage
// shares that image, its micro-ops and its translated blocks copy-on-write,
// so a fork restores by image identity without hashing, and fanning N
// variants out of one warm checkpoint does not copy flash N times.
//
// Wire format:
//
//	offset  size  field
//	0       4     magic "SSNP"
//	4       4     schema version (little-endian u32)
//	8       8     payload length (little-endian u64)
//	16      32    SHA-256 of payload
//	48      n     payload
//
// The payload is the machine record, the kernel record, then each observer's
// record behind a presence byte. Every record has one schema in codec.go
// that names its fields once, in wire order; the same walk encodes and
// decodes it.
//
// All integers are little-endian. Decoding is strict: a wrong magic, an
// unknown version, a truncated buffer, a hash mismatch, or malformed payload
// contents each fail with a distinct typed error, and decode never panics on
// adversarial input (FuzzSnapshotRoundTrip enforces this).
package snapshot

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SchemaVersion is the wire-format version this package reads and writes.
// Version history:
//
//	1  initial format: machine + kernel + optional trace/telemetry/profile
//	2  adds the optional energy-meter ledger after the profile section, and
//	   energy gauges to every telemetry sample (see codec.go)
//
// Each version is read and written by exactly one release line; there is no
// cross-version migration (DESIGN.md documents the schema-evolution policy).
const SchemaVersion = 2

// magic identifies a snapshot blob.
const magic = "SSNP"

// headerSize is the fixed prefix before the payload.
const headerSize = 4 + 4 + 8 + 32

// Decode errors, distinguishable with errors.Is.
var (
	// ErrBadMagic: the blob does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrVersion: the blob's schema version is not supported.
	ErrVersion = errors.New("snapshot: unsupported schema version")
	// ErrTruncated: the blob ends before the declared payload does.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrCorrupt: the payload does not match its integrity hash.
	ErrCorrupt = errors.New("snapshot: integrity hash mismatch")
	// ErrMalformed: the payload hashes correctly but its contents do not
	// decode (impossible lengths, bad enum values, trailing garbage).
	ErrMalformed = errors.New("snapshot: malformed payload")
)

// VersionError reports the unsupported version a blob declared. It unwraps
// to ErrVersion.
type VersionError struct {
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot: unsupported schema version %d (supported: %d)", e.Got, SchemaVersion)
}

func (e *VersionError) Unwrap() error { return ErrVersion }

// State is one decoded checkpoint. Machine and Kernel are always present;
// the observer states are present exactly when the source system had that
// observer attached, and a restore target's attachments must match.
type State struct {
	Machine   *mcu.MachineState
	Kernel    *kernel.KernelState
	Trace     *trace.RecorderState
	Telemetry *telemetry.SamplerState
	Profile   *profile.ProfilerState
	Energy    *energy.MeterState
}

// Encode serializes st into a self-validating blob.
func Encode(st *State) ([]byte, error) {
	if st == nil || st.Machine == nil || st.Kernel == nil {
		return nil, fmt.Errorf("snapshot: encode: machine and kernel state are required")
	}
	// The payload is appended once, behind a reserved header that is filled
	// in when its length and hash are known.
	c := codec{b: make([]byte, headerSize, headerSize+sizeHint(st.Machine))}
	c.state(st)
	out := c.b
	copy(out, magic)
	le.PutUint32(out[4:], SchemaVersion)
	le.PutUint64(out[8:], uint64(len(out)-headerSize))
	sum := sha256.Sum256(out[headerSize:])
	copy(out[16:headerSize], sum[:])
	return out, nil
}

// sizeHint is the room Encode reserves for a payload. Most of a payload is
// the data segment and the device logs, which grow with the run: the seek
// benchmark's saves of a seven-task node are 7.1 to 17.4 KB, up to 10 KB of
// it radio frames. The hint adds as much again as the data segment for the
// kernel and machine records (2.6 KB with seven tasks), so such a snapshot
// encodes without regrowing; observer logs are not counted, and a traced
// snapshot may regrow.
func sizeHint(m *mcu.MachineState) int {
	dv := &m.Dev
	return 2*len(m.Data) + len(dv.UARTOut) + radioFrameSize*len(dv.RadioOut) + len(dv.RadioIn)
}

// Decode parses and validates a blob produced by Encode. It returns a typed
// error (ErrBadMagic, ErrVersion/VersionError, ErrTruncated, ErrCorrupt,
// ErrMalformed) and never panics, whatever the input.
func Decode(data []byte) (*State, error) {
	if len(data) < 8 {
		if len(data) >= 4 && string(data[:4]) != magic {
			return nil, ErrBadMagic
		}
		return nil, fmt.Errorf("%w: %d-byte blob is shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:4]) != magic {
		return nil, ErrBadMagic
	}
	if v := le.Uint32(data[4:]); v != SchemaVersion {
		return nil, &VersionError{Got: v}
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte blob is shorter than the header", ErrTruncated, len(data))
	}
	n := le.Uint64(data[8:])
	if n > uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header declares a %d-byte payload, %d present",
			ErrTruncated, n, len(data)-headerSize)
	}
	if n < uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: %d bytes of trailing garbage after the payload",
			ErrMalformed, uint64(len(data)-headerSize)-n)
	}
	payload := data[headerSize:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(data[16:48]) {
		return nil, ErrCorrupt
	}
	c := codec{decode: true, b: payload}
	st := new(State)
	c.state(st)
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("%w: %d undecoded bytes at end of payload", ErrMalformed, len(payload)-c.off)
	}
	return st, nil
}
