package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/rewriter"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// counterAsm bumps a heap counter, sends it to the UART and spins, forever:
// two copies keep the scheduler, the sampler, the profiler and the energy
// meter busy.
const counterAsm = `
.data
n: .space 1
.text
main:
loop:
    lds r24, n
    inc r24
    sts n, r24
    out UDR0, r24
    rcall delay
    rjmp loop
delay:
    ldi r20, 50
spin:
    dec r20
    brne spin
    ret
`

// observed builds a system carrying every observer, each configured away
// from its defaults, with two copies of counterAsm deployed. The sampler
// streams into the returned buffer.
func observed(t testing.TB) (*System, *bytes.Buffer) {
	t.Helper()
	var stream bytes.Buffer
	prof := profile.New(profile.Options{StackInterval: 512, StackRing: 16, WatchLimit: 8})
	prof.AddWatch(profile.Watchpoint{Addr: 0x100, Len: 1, Write: true})
	sys := NewSystem(
		WithKernelConfig(kernel.Config{InitialStack: 96}),
		WithRewriterConfig(rewriter.Config{NoGrouping: true}),
		WithTrace(trace.NewLimited(64)),
		WithTelemetry(telemetry.New(telemetry.Options{Every: 4096, Ring: 32, Stream: &stream})),
		WithProfile(prof),
		WithEnergy(new(energy.Meter)),
	)
	prog, err := sys.CompileString("counter", counterAsm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.Deploy(prog); err != nil {
			t.Fatal(err)
		}
	}
	return sys, &stream
}

// TestForkCarriesConfiguration: a fork has the parent's kernel and rewriter
// configuration and tasks, and fresh observers configured like the
// parent's.
func TestForkCarriesConfiguration(t *testing.T) {
	sys, _ := observed(t)
	f, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.opts.rewriterCfg != sys.opts.rewriterCfg {
		t.Errorf("rewriter config %+v, want %+v", f.opts.rewriterCfg, sys.opts.rewriterCfg)
	}
	ft, st := f.Tasks(), sys.Tasks()
	if len(ft) != len(st) {
		t.Fatalf("%d tasks, want %d", len(ft), len(st))
	}
	for i := range ft {
		if ft[i].Name != st[i].Name || ft[i].Nat != st[i].Nat {
			t.Errorf("task %d is %s over %p, want %s over %p", i, ft[i].Name, ft[i].Nat, st[i].Name, st[i].Nat)
		}
		if got := ft[i].StackAlloc(); got != 96 {
			t.Errorf("task %d initial stack %d; kernel config not carried", i, got)
		}
	}

	if f.Trace() == sys.Trace() || f.Trace().Limit != 64 {
		t.Errorf("trace recorder %p with Limit %d, want a fresh one with Limit 64", f.Trace(), f.Trace().Limit)
	}
	if f.Telemetry() == sys.Telemetry() {
		t.Error("fork shares the parent's sampler")
	}
	if got := f.Telemetry().CaptureState(); got.Every != 4096 || got.Ring != 32 {
		t.Errorf("sampler interval/ring %d/%d, want 4096/32", got.Every, got.Ring)
	}
	if f.Profile() == sys.Profile() {
		t.Error("fork shares the parent's profiler")
	}
	got, want := f.Profile().CaptureState(), sys.Profile().CaptureState()
	if got.ClockHz != want.ClockHz || got.StackInterval != 512 || got.StackRing != 16 || got.WatchLimit != 8 {
		t.Errorf("profiler options clock %d, stack %d/%d, watch %d; want clock %d, stack 512/16, watch 8",
			got.ClockHz, got.StackInterval, got.StackRing, got.WatchLimit, want.ClockHz)
	}
	if !slices.Equal(f.Profile().Watches(), sys.Profile().Watches()) {
		t.Errorf("watchpoints %v, want %v", f.Profile().Watches(), sys.Profile().Watches())
	}
	f.Profile().AddWatch(profile.Watchpoint{Addr: 0x200, Len: 2, Read: true})
	if n := len(sys.Profile().Watches()); n != 1 {
		t.Errorf("arming a watchpoint on the fork left the parent with %d", n)
	}
	if f.Energy() == sys.Energy() || f.Energy() == nil {
		t.Errorf("energy meter %p, want a fresh one (parent's is %p)", f.Energy(), sys.Energy())
	}

	bare, err := NewSystem().Fork()
	if err != nil {
		t.Fatal(err)
	}
	if bare.Trace() != nil || bare.Telemetry() != nil || bare.Profile() != nil || bare.Energy() != nil {
		t.Error("a fork of an unobserved system carries observers")
	}
}

// TestForkStreamsNothing: the fork's sampler has no stream, so a fork's run
// writes no line to the parent's sink even though it samples.
func TestForkStreamsNothing(t *testing.T) {
	sys, stream := observed(t)
	f, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(200_000); err != nil {
		t.Fatal(err)
	}
	if f.Telemetry().Total() == 0 {
		t.Fatal("the fork took no samples; the check proves nothing")
	}
	if stream.Len() != 0 {
		t.Errorf("the fork's run wrote %d bytes to the parent's stream", stream.Len())
	}
}

// TestForkLeavesParentAlone: booting or restoring a fork and running it
// changes none of the parent's snapshot bytes, observer streams or sampler
// sink.
func TestForkLeavesParentAlone(t *testing.T) {
	sys, stream := observed(t)
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(150_000); err != nil {
		t.Fatal(err)
	}
	state := func() [][]byte {
		st, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		var ndjson, pprof bytes.Buffer
		if err := sys.Telemetry().WriteNDJSON(&ndjson); err != nil {
			t.Fatal(err)
		}
		if err := sys.Profile().WritePprof(&pprof); err != nil {
			t.Fatal(err)
		}
		return [][]byte{blob, sys.Trace().Encode(), ndjson.Bytes(), pprof.Bytes(), slices.Clone(stream.Bytes())}
	}
	before := state()
	if len(before[4]) == 0 || sys.Energy().CaptureState().UARTBytes == 0 {
		t.Fatal("the parent streamed no samples or charged no UART byte; the check proves nothing")
	}

	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sys.Fork()
	if err == nil {
		err = restored.Restore(st)
	}
	if err == nil {
		err = restored.Run(400_000)
	}
	if err != nil {
		t.Fatal(err)
	}
	booted, err := sys.Fork()
	if err == nil {
		err = booted.Boot()
	}
	if err == nil {
		err = booted.Run(400_000)
	}
	if err != nil {
		t.Fatal(err)
	}

	names := [...]string{"snapshot bytes", "trace encoding", "telemetry NDJSON", "pprof bytes", "sampler stream"}
	for i, after := range state() {
		if !bytes.Equal(after, before[i]) {
			t.Errorf("running forks changed the parent's %s", names[i])
		}
	}
}

// TestForkDeployReusesImage: deploying a program the parent already
// deployed reuses the parent's naturalized image, so the fork's kernel
// loads no second copy of it.
func TestForkDeployReusesImage(t *testing.T) {
	sys, _ := observed(t)
	f, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	prog := sys.Tasks()[0].Nat.Orig
	task, err := f.Deploy(prog)
	if err != nil {
		t.Fatal(err)
	}
	if task.Nat != sys.Tasks()[0].Nat {
		t.Error("Deploy on the fork rewrote the program again")
	}
	loads := 0
	for _, e := range f.Trace().Events() {
		if e.Kind == trace.KindProgLoad {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("the fork's kernel loaded the program %d times, want once", loads)
	}
}

// TestAdmitKeepsName: Admit registers the task under the name it is given
// and shares the naturalized program, a fork admits it again under that
// name, and Deploy's index counts admitted tasks.
func TestAdmitKeepsName(t *testing.T) {
	sys := NewSystem()
	prog, err := sys.CompileString("counter", counterAsm)
	if err != nil {
		t.Fatal(err)
	}
	nat, err := sys.Naturalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	task, err := sys.Admit("victim", nat)
	if err != nil {
		t.Fatal(err)
	}
	if task.Name != "victim" || task.Nat != nat {
		t.Errorf("admitted %q with nat %p, want \"victim\" with %p", task.Name, task.Nat, nat)
	}
	deployed, err := sys.Deploy(prog)
	if err != nil {
		t.Fatal(err)
	}
	if deployed.Name != "counter#1" {
		t.Errorf("Deploy after Admit named the task %q, want counter#1", deployed.Name)
	}
	f, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if ft := f.Tasks(); len(ft) != 2 || ft[0].Name != "victim" || ft[0].Nat != nat {
		t.Errorf("fork's first task is %q, want \"victim\" sharing the parent's program", ft[0].Name)
	}
}
