package main

import (
	"strings"
	"testing"

	"repro/internal/mcu"
)

// counterSrc counts a heap byte with a spin delay, then parks in a sleep
// loop — long-lived enough for ring checkpoints to fire and state to stay
// inspectable at any -at cycle.
const counterSrc = `
.data
n: .space 1
.text
main:
    clr r24
    sts n, r24
loop:
    lds r24, n
    inc r24
    sts n, r24
    rcall delay
    cpi r24, 150
    brne loop
park:
    sleep
    rjmp park
delay:
    ldi r20, 200
spin:
    dec r20
    brne spin
    ret
`

// dumpCases are -dump section lists and how parseDump must take them.
var dumpCases = []struct {
	in      string
	want    int    // spec count on success
	wantErr string // substring; "" = valid
}{
	{"regs", 1, ""},
	{"regs,stack,tasks,energy,events", 5, ""},
	{"mem:0x100+16", 1, ""},
	{"mem:256+16", 1, ""},
	{"regs, stack , mem:0x100+4", 3, ""},
	{"mem:0x100+8,mem:0x200+8", 2, ""},
	{"", 0, "unknown -dump section"},
	{"regs,", 0, "unknown -dump section"},
	{"bogus", 0, "unknown -dump section"},
	{"mem:0x100", 0, "want mem:ADDR+LEN"},
	{"mem:zz+16", 0, "bad -dump address"},
	{"mem:0x10000+16", 0, "bad -dump address"},
	{"mem:0x100+0", 0, "bad -dump length"},
	{"mem:0x100+99999", 0, "bad -dump length"},
	{"mem:0x10F0+16", 1, ""},
	{"mem:0x10FF+1", 1, ""},
	{"mem:0x1100+16", 0, "bad -dump address"},
	{"mem:0x10F8+16", 0, "bad -dump length"},
	{"mem:0+0x1101", 0, "bad -dump length"},
}

func TestParseDump(t *testing.T) {
	for _, tc := range dumpCases {
		specs, err := parseDump(tc.in)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("parseDump(%q): unexpected error %v", tc.in, err)
		case tc.wantErr == "" && len(specs) != tc.want:
			t.Errorf("parseDump(%q) = %d specs, want %d", tc.in, len(specs), tc.want)
		case tc.wantErr != "" && err == nil:
			t.Errorf("parseDump(%q) accepted, want error containing %q", tc.in, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("parseDump(%q) error %q does not mention %q", tc.in, err, tc.wantErr)
		}
	}
}

// FuzzParseDump: whatever parses must be a list of known sections whose
// memory windows lie inside the data space.
func FuzzParseDump(f *testing.F) {
	for _, tc := range dumpCases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := parseDump(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("parseDump(%q) accepted no sections", s)
		}
		for _, d := range specs {
			switch d.kind {
			case "regs", "stack", "tasks", "energy", "events":
			case "mem":
				if d.n < 1 || int(d.addr)+d.n > mcu.DataSize {
					t.Fatalf("parseDump(%q) accepted mem window %#x+%d past the %#x-byte data space", s, d.addr, d.n, mcu.DataSize)
				}
			default:
				t.Fatalf("parseDump(%q) produced unknown section %q", s, d.kind)
			}
		}
	})
}

func TestValidateDebugCombos(t *testing.T) {
	dbg := func(extra func(*simFlags)) simFlags {
		f := simFlags{programs: 1, copies: 1, debug: true, atCount: 1,
			set: map[string]bool{"debug": true, "at": true}}
		if extra != nil {
			extra(&f)
		}
		return f
	}
	cases := []struct {
		name    string
		f       simFlags
		wantErr string // substring; "" = valid
	}{
		{"debug with one seek", dbg(nil), ""},
		{"debug with inject", dbg(func(f *simFlags) { f.inject = true; f.set["inject"] = true }), ""},
		{"debug with dump/ring tuning", dbg(func(f *simFlags) {
			f.set["dump"], f.set["ring"], f.set["ring-every"] = true, true, true
		}), ""},
		{"debug without -at", dbg(func(f *simFlags) { f.atCount = 0; delete(f.set, "at") }), "at least one -at"},
		{"debug with native", dbg(func(f *simFlags) { f.native = true }), "drop -native"},
		{"debug with trace", dbg(func(f *simFlags) { f.trace = true }), "use -dump"},
		{"debug with metrics", dbg(func(f *simFlags) { f.metrics = true }), "use -dump"},
		{"debug with stats", dbg(func(f *simFlags) { f.stats = true }), "use -dump"},
		{"debug with energy", dbg(func(f *simFlags) { f.energy = true }), "use -dump"},
		{"debug with profiling", dbg(func(f *simFlags) { f.profiling = true }), "drop one side"},
		{"debug with serve", dbg(func(f *simFlags) { f.serve = true }), "drop one side"},
		{"debug with telemetry", dbg(func(f *simFlags) { f.telemetry = true }), "drop one side"},
		{"debug with checkpoint", dbg(func(f *simFlags) {
			f.checkpoint = true
			f.set["checkpoint"], f.set["checkpoint-at"] = true, true
		}), "its own checkpoint ring"},
		{"debug with restore", dbg(func(f *simFlags) { f.restore = true; f.set["restore"] = true }), "its own checkpoint ring"},
		{"at without debug", simFlags{programs: 1, copies: 1, atCount: 1,
			set: map[string]bool{"at": true}}, "add -debug"},
		{"dump without debug", simFlags{programs: 1, copies: 1,
			set: map[string]bool{"dump": true}}, "add -debug"},
		{"ring without debug", simFlags{programs: 1, copies: 1,
			set: map[string]bool{"ring": true}}, "add -debug"},
		{"ring-every without debug", simFlags{programs: 1, copies: 1,
			set: map[string]bool{"ring-every": true}}, "add -debug"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.f)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("combination accepted, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// The full scripted session: record, seek to a batch of cycles (boot
// fallback, ring restore, the Seek(0) boot state), dump every section kind.
func TestSimToolDebugSeekDump(t *testing.T) {
	src := writeTemp(t, counterSrc)
	err := run([]string{"-debug", "-cycles", "300000", "-ring", "4", "-ring-every", "32768",
		"-at", "0", "-at", "100000", "-at", "299999",
		"-dump", "regs,stack,mem:0x100+16,tasks,energy,events", src})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimToolDebugWithInjection(t *testing.T) {
	src := writeTemp(t, counterSrc)
	err := run([]string{"-debug", "-cycles", "200000", "-ring", "4", "-ring-every", "32768",
		"-inject", "sram:0x100:7@60000", "-at", "100000", "-dump", "regs,mem:0x100+2", src})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimToolDebugErrors(t *testing.T) {
	src := writeTemp(t, counterSrc)
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"seek past end", []string{"-debug", "-cycles", "100000", "-at", "999999999", src}, "past the end"},
		{"bad -at", []string{"-debug", "-at", "zzz", src}, "bad -at cycle"},
		{"bad -dump", []string{"-debug", "-at", "50000", "-dump", "mem:0x100", src}, "want mem:ADDR+LEN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// Combination rules fire before any program file is touched: these name a
// file that does not exist.
func TestSimToolDebugRejectsBeforeLoading(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-debug", "nonexistent.s"}, "at least one -at"},
		{[]string{"-debug", "-at", "1000", "-metrics", "nonexistent.s"}, "use -dump"},
		{[]string{"-at", "1000", "nonexistent.s"}, "add -debug"},
		{[]string{"-ring", "4", "nonexistent.s"}, "add -debug"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.wantErr)
		}
	}
}
