package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot blob")

// testState builds a synthetic checkpoint exercising every field and every
// optional branch of the codec: a parked fault, populated device buffers,
// two kernel tasks with a fault log, trace events, a telemetry sample with
// per-task rows, and a profiler with histograms, stack ring, relocation
// marks, watchpoints and hits. Fully hand-built, so its encoding is stable
// enough to pin as the golden format blob.
func testState() *State {
	m := &mcu.MachineState{
		Data:        make([]byte, mcu.DataSize),
		PC:          0x1234,
		Cycle:       987_654_321,
		Idle:        1024,
		Insts:       400_000,
		Sleeping:    true,
		FaultKind:   3,
		FaultPC:     0x42,
		FaultAddr:   0x10FE,
		FaultNote:   "guard violation",
		Pending:     0b101,
		Stepwise:    true,
		GuardLo:     0x200,
		GuardHi:     0x4FF,
		GuardOn:     true,
		SampleEvery: 65536,
		SampleNext:  1_048_576,
		CodeEnd:     0x800,
		Dev: mcu.DeviceState{
			NextEvent:   987_700_000,
			T0BaseCycle: 12, T0BaseCount: 34, T0Prescale: 64,
			ADCBusyUntil: 56, ADCPending: true, ADCLFSR: 0xBEEF,
			UARTBusyUntil: 78, UARTPendingB: 'x', UARTPending: true,
			UARTOut:        []byte("hello, node"),
			RadioBusyUntil: 90, RadioPendingB: 0x55, RadioPending: true,
			RadioOut: []mcu.RadioFrame{{Byte: 0xAA, Cycle: 101}, {Byte: 0xBB, Cycle: 202}},
			RadioIn:  []byte{1, 2, 3},
		},
	}
	for i := range m.Data {
		m.Data[i] = byte(i * 7)
	}
	for i := range m.FlashHash {
		m.FlashHash[i] = byte(0xF0 + i)
	}

	k := &kernel.KernelState{
		Cur:      1,
		Booted:   true,
		Service:  2,
		FlashTop: 0x1F000,
		AppBase:  0x300,
		AppEnd:   0x1000,
		Regions:  []int{1, 0},
		FaultLog: []kernel.FaultRecord{{
			Cycle: 777, Task: 0, Name: "blink#0", Service: 1,
			Kind: "stack-overflow", PC: 0x99, Sym: "main", Reason: "sp below guard",
		}},
	}
	k.Stats.ContextSwitches = 12
	k.Stats.Preemptions = 5
	k.Stats.BranchTraps = 9000
	k.Stats.SliceChecks = 10_000
	k.Stats.Relocations = 3
	k.Stats.RelocatedBytes = 640
	k.Stats.Terminations = 1
	k.Stats.ServiceCalls[1] = 42
	k.Stats.ServiceCycles[1] = 4200
	k.Stats.ServiceOverhead[1] = 420
	k.Stats.BootCycles = 1111
	k.Stats.SwitchCycles = 2222
	k.Stats.RelocCycles = 3333
	for ti := 0; ti < 2; ti++ {
		t := kernel.TaskRecord{
			ID: ti, Name: []string{"blink#0", "sense#1"}[ti], Base: uint32(0x1000 * (ti + 1)),
			PL: 0x300, PH: 0x500, PU: 0x480, State: uint8(ti + 1), WakeAt: uint64(ti) * 500,
			SREG: 0x80, SPPhys: 0x47F, PC: uint32(0x111 * (ti + 1)), SPShad: 0x1FF,
			BrLeft: 17, SliceAt: 100, RunAt: 200, RunCyc: 300, T3Latch: 7,
			Relocations: ti, MaxStackUsed: 96, ExitReason: "", Switches: 6, KernelCycles: 5050,
		}
		for i := range t.Regs {
			t.Regs[i] = byte(ti*32 + i)
		}
		t.ServiceCalls[3] = 8
		k.Tasks = append(k.Tasks, t)
	}

	return &State{
		Machine: m,
		Kernel:  k,
		Trace: &trace.RecorderState{
			Limit:   0,
			Dropped: 2,
			Events: []trace.Event{
				{Cycle: 1, Kind: trace.KindBoot, Task: -1, Arg: 0, Arg2: 0, PC: 0, Detail: "boot"},
				{Cycle: 50, Kind: trace.KindTrapEnter, Task: 0, Arg: 3, Arg2: 4, PC: 0x77, Detail: ""},
			},
		},
		Telemetry: &telemetry.SamplerState{
			Every: 65536,
			Ring:  1024,
			Total: 3,
			Samples: []telemetry.Sample{{
				At: 65536, Cycle: 65600, IdleCycles: 12,
				ServiceOverheadCycles: 34, SwitchCycles: 56, RelocCycles: 78, BootCycles: 90,
				ContextSwitches: 2, Preemptions: 1, SliceChecks: 400, BranchTraps: 300,
				Relocations: 1, RelocatedBytes: 128, Terminations: 0,
				HeapBytes: 64, StackBytes: 256, FreeBytes: 2048, Running: 1,
				EnergyPJ: 213_500_000, EnergyCPUActivePJ: 213_000_000, EnergyCPUSleepPJ: 72,
				EnergyRadioPJ: 420_000, EnergyUARTPJ: 60_000, EnergyADCPJ: 16_000, EnergyTimerPJ: 3_928,
				Tasks: []telemetry.TaskSample{{
					ID: 0, Name: "blink#0", State: "ready", RunCycles: 30_000, KernelCycles: 900,
					StackUsed: 40, StackPeak: 96, StackAlloc: 128, HeapBytes: 16,
					Traps: 12, Relocations: 1, Switches: 3, EnergyPJ: 97_650_000,
				}},
			}},
			TaskIDs:   []int32{0, 1},
			TaskNames: []string{"blink#0", "sense#1"},
		},
		Profile: &profile.ProfilerState{
			ClockHz: 7_372_800, StackInterval: 8192, StackRing: 4096, WatchLimit: 65536,
			Now: 987_654_321, Idle: 1024, Switches: 4000, Compaction: 5000, Boot: 1111, Cur: 1,
			Tasks: []profile.TaskProfState{{
				ID: 0, Name: "blink#0", PL: 0x300, PH: 0x500, PU: 0x480,
				PCs:   []profile.PCCount{{PC: 0x10, Cycles: 99}, {PC: 0x11, Cycles: 101}},
				Reloc: 640, Intr: 50, NextSample: 991_000,
				Ring:    []profile.StackSample{{Cycle: 7, SP: 0x47E, Used: 2}},
				RingPos: 0, Wrapped: false, Samples: 1, Peak: 96,
				Relocs: []profile.RelocMark{{Cycle: 600, PC: 0x33, Granted: 64, Cycles: 888}},
			}},
			Watches:     []profile.Watchpoint{{Addr: 0x310, Len: 2, Read: true, Write: true}},
			Hits:        []profile.WatchHit{{Cycle: 123, Task: 0, PC: 0x34, Addr: 0x311, Write: true}},
			DroppedHits: 1,
		},
		Energy: &energy.MeterState{
			SleepCycles: 1024,
			RadioBytes:  2, RadioCycles: 7680,
			UARTBytes: 11, UARTCycles: 14_080,
			ADCConvs: 5, ADCCycles: 8320,
			TimerCycles: 50_000, TimerOn: true, TimerSince: 987_000_000,
		},
	}
}

// TestRoundTrip: decode(encode(state)) reproduces the state exactly, and
// re-encoding the decoded state reproduces the bytes exactly — the encoding
// is canonical. The second state sets every field, so a schema that leaves
// one out fails here.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		st   *State
	}{
		{"hand-built", testState()},
		{"every field set", everyFieldSet(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := Encode(tc.st)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.st) {
				t.Error("decoded state differs from the original")
			}
			again, err := Encode(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Error("re-encoding the decoded state produced different bytes")
			}
		})
	}
}

// everyFieldSet returns a State whose every exported field, recursively, is
// set by reflection: every observer present, two elements in every slice,
// bools true, and every other scalar a distinct non-zero value (bytes
// repeat after 255; ints are negative, to carry their sign bits).
func everyFieldSet(t *testing.T) *State {
	var next uint64
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		next++
		switch v.Kind() {
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", next))
		case reflect.Uint8:
			v.SetUint(next%255 + 1)
		case reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(next)
		case reflect.Int, reflect.Int32:
			v.SetInt(-int64(next))
		default:
			t.Fatalf("everyFieldSet has no value for a %s field", v.Type())
		}
	}
	st := new(State)
	fill(reflect.ValueOf(st).Elem())
	return st
}

// TestRoundTripNoObservers: a snapshot from an unobserved system (no trace,
// telemetry, or profile state) round-trips with the absences preserved.
func TestRoundTripNoObservers(t *testing.T) {
	st := testState()
	st.Trace, st.Telemetry, st.Profile, st.Energy = nil, nil, nil, nil
	blob, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil || got.Telemetry != nil || got.Profile != nil || got.Energy != nil {
		t.Error("absent observers decoded as present")
	}
	if !reflect.DeepEqual(got, st) {
		t.Error("decoded state differs from the original")
	}
}

func TestEncodeRequiresMachineAndKernel(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
	if _, err := Encode(&State{Kernel: testState().Kernel}); err == nil {
		t.Error("Encode without machine state succeeded")
	}
	if _, err := Encode(&State{Machine: testState().Machine}); err == nil {
		t.Error("Encode without kernel state succeeded")
	}
}

// reblob reconstructs a blob around a (possibly doctored) payload with a
// correct length and hash, so tests can reach the payload decoder behind the
// integrity check.
func reblob(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, magic...)
	out = le.AppendUint32(out, SchemaVersion)
	out = le.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// TestDecodeRejects walks every failure class: each doctored blob must fail
// with its distinct typed error and never panic.
func TestDecodeRejects(t *testing.T) {
	good, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0x01

	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'

	shortPayload := append([]byte(nil), good[:len(good)-5]...)

	trailing := append(append([]byte(nil), good...), 0xEE)

	// A payload that hashes correctly but lies internally: flip the machine
	// Sleeping bool byte to 2 (offset: 4-byte Data length prefix + Data +
	// PC u32 + Cycle/Idle/Insts u64s).
	badBool := append([]byte(nil), good[headerSize:]...)
	badBool[4+mcu.DataSize+4+24] = 2

	// An impossible slice length: truncate the payload mid-struct and
	// re-wrap, so a nested count overruns what remains.
	shortStruct := reblob(good[headerSize : headerSize+40])

	// A list count of 2^31 must be refused even where int has 32 bits, on
	// which it converts to a negative length that would pass the bound as
	// an empty list. RadioOut is emptied so that everything after its count
	// still decodes; the count ends the machine record but for RadioIn (a
	// u32 length and three bytes).
	noRadio := testState()
	noRadio.Machine.Dev.RadioOut = nil
	var mc codec
	mc.machineState(noRadio.Machine)
	hugeCount, err := Encode(noRadio)
	if err != nil {
		t.Fatal(err)
	}
	hugeCount = hugeCount[headerSize:]
	at := len(mc.b) - 4 - 3 - 4
	if le.Uint32(hugeCount[at:]) != 0 {
		t.Fatalf("no empty RadioOut count at payload offset %d", at)
	}
	le.PutUint32(hugeCount[at:], 1<<31)

	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short with magic", []byte("SSNP\x01"), ErrTruncated},
		{"short without magic", []byte("GIF89a"), ErrBadMagic},
		{"bad magic", badMagic, ErrBadMagic},
		{"header only", good[:20], ErrTruncated},
		{"payload cut short", shortPayload, ErrTruncated},
		{"trailing garbage", trailing, ErrMalformed},
		{"flipped payload bit", corrupt, ErrCorrupt},
		{"malformed bool", reblob(badBool), ErrMalformed},
		{"overrunning field", shortStruct, ErrMalformed},
		{"list count of 2^31", reblob(hugeCount), ErrMalformed},
	}
	for _, tc := range cases {
		st, err := Decode(tc.blob)
		if st != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode = (%v, %v), want error %v", tc.name, st, err, tc.want)
		}
	}
}

// TestVersionBumpRejected: a blob declaring a future schema version is
// refused up front with an error naming both versions, before any payload
// parsing.
func TestVersionBumpRejected(t *testing.T) {
	blob, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	bumped := append([]byte(nil), blob...)
	bumped[4] = SchemaVersion + 1

	st, err := Decode(bumped)
	if st != nil || !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode of bumped version = (%v, %v), want ErrVersion", st, err)
	}
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != SchemaVersion+1 {
		t.Fatalf("error %v does not carry the declared version", err)
	}
	for _, part := range []string{"unsupported schema version 3", "supported: 2"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not mention %q", err, part)
		}
	}
}

// TestV1BlobRejected: a real schema-v1 blob (the retired golden, pinned in
// testdata) fails with a typed VersionError carrying version 1 — there is no
// cross-version migration, per the schema-evolution policy in DESIGN.md.
func TestV1BlobRejected(t *testing.T) {
	hexBlob, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.hex"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hex.DecodeString(strings.TrimSpace(string(hexBlob)))
	if err != nil {
		t.Fatal(err)
	}
	st, decErr := Decode(blob)
	if st != nil || !errors.Is(decErr, ErrVersion) {
		t.Fatalf("Decode of v1 blob = (%v, %v), want ErrVersion", st, decErr)
	}
	var ve *VersionError
	if !errors.As(decErr, &ve) || ve.Got != 1 {
		t.Fatalf("error %v does not carry version 1", decErr)
	}
}

// TestEncodeAllocations: Encode appends the payload once, behind the header
// it reserves and fills in afterwards, so encoding the golden state
// allocates the blob alone. (core.TestSnapshotEncodesInOneAllocation does
// the same for a real seven-task snapshot whose radio log outgrows the
// data segment.)
func TestEncodeAllocations(t *testing.T) {
	st := testState()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Encode(st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Encode of the golden state allocates %.0f times, want 1", allocs)
	}
}

// TestGoldenFormat pins the exact wire bytes of the synthetic state. Any
// codec change that redefines the format breaks this test and must come with
// a SchemaVersion bump and a regenerated golden (go test -run Golden
// -update).
func TestGoldenFormat(t *testing.T) {
	blob, err := Encode(testState())
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(blob)

	path := filepath.Join("testdata", "snapshot_v2.hex")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Error("encoding differs from the golden blob: the wire format changed; bump SchemaVersion and regenerate with -update")
	}

	// The golden must also still decode to the same state — guards against
	// a same-bytes-different-meaning decoder change.
	decoded, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, testState()) {
		t.Error("golden blob no longer decodes to the reference state")
	}
}

// FuzzSnapshotRoundTrip: whatever the input, Decode never panics; when it
// accepts a blob the decoded state must re-encode to the identical bytes
// (serialize -> deserialize -> re-serialize identity), and wrapping the raw
// input as a correctly-hashed payload must drive the payload parser to a
// typed verdict, never a panic.
func FuzzSnapshotRoundTrip(f *testing.F) {
	good, err := Encode(testState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("SSNP"))
	f.Add([]byte{})
	mut := append([]byte(nil), good...)
	mut[headerSize+100] ^= 0x80
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		if st, err := Decode(data); err == nil {
			again, err := Encode(st)
			if err != nil {
				t.Fatalf("re-encoding an accepted blob failed: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("accepted blob is not canonical: re-encoding produced different bytes")
			}
		}
		// Exercise the payload parser past the integrity check.
		if st, err := Decode(reblob(data)); err == nil {
			if _, err := Encode(st); err != nil {
				t.Fatalf("re-encoding an accepted payload failed: %v", err)
			}
		}
	})
}
