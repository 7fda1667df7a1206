package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/mcu"
)

// injectForms are well-formed -inject flags and what they parse to.
var injectForms = []struct {
	in   string
	want Injection
}{
	{"sram:0x123@500", Injection{Kind: KindSRAMFlip, Addr: 0x123, At: 500}},
	{"sram:291:7@0x1f4", Injection{Kind: KindSRAMFlip, Addr: 291, Bit: 7, At: 500}},
	{"burst:0x200:4@9", Injection{Kind: KindSRAMBurst, Addr: 0x200, Len: 4, At: 9}},
	{"burst:0x200:4:3@9", Injection{Kind: KindSRAMBurst, Addr: 0x200, Len: 4, Bit: 3, At: 9}},
	{"sram:0x10FF@1", Injection{Kind: KindSRAMFlip, Addr: 0x10FF, At: 1}},
	{"burst:0x10F0:16@1", Injection{Kind: KindSRAMBurst, Addr: 0x10F0, Len: 16, At: 1}},
	{"reg:r17@77", Injection{Kind: KindRegFlip, Reg: 17, At: 77}},
	{"reg:r0:6@77", Injection{Kind: KindRegFlip, Reg: 0, Bit: 6, At: 77}},
	{"smash:12:0xAA@1000", Injection{Kind: KindStackSmash, Len: 12, Value: 0xAA, At: 1000}},
	{"retaddr:0xF00@42", Injection{Kind: KindRetAddr, Addr: 0xF00, At: 42}},
	{"radio:03a1b2c3@8", Injection{Kind: KindRadio, Payload: []byte{3, 0xA1, 0xB2, 0xC3}, At: 8}},
}

// TestParseInjectRoundTrip checks every flag form parses and that String
// renders back something ParseInject accepts with identical meaning.
func TestParseInjectRoundTrip(t *testing.T) {
	for _, c := range injectForms {
		got, err := ParseInject(c.in)
		if err != nil {
			t.Errorf("ParseInject(%q): %v", c.in, err)
			continue
		}
		if got.Kind != c.want.Kind || got.At != c.want.At || got.Addr != c.want.Addr ||
			got.Bit != c.want.Bit || got.Len != c.want.Len || got.Value != c.want.Value ||
			got.Reg != c.want.Reg || string(got.Payload) != string(c.want.Payload) {
			t.Errorf("ParseInject(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// Round-trip: re-parsing the rendered form must reproduce it.
		again, err := ParseInject(got.String())
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", got.String(), c.in, err)
			continue
		}
		if again.String() != got.String() {
			t.Errorf("round trip drifted: %q -> %q", got.String(), again.String())
		}
	}
}

// badInjects are -inject flags ParseInject must reject.
var badInjects = []string{
	"",                      // empty
	"sram:0x10",             // no cycle
	"sram@5",                // missing address
	"sram:0x10:1:2@5",       // too many fields
	"sram:zz@5",             // non-numeric address
	"burst:0x10@5",          // missing length
	"burst:0x10:0@5",        // zero length
	"reg:x5@5",              // bad register syntax
	"reg:r32@5",             // register out of range
	"reg:r1:9@5",            // bit out of range
	"smash:0:0x41@5",        // zero length
	"smash:4@5",             // missing value
	"retaddr@5",             // missing target
	"retaddr:0x10:0x20@5",   // extra field
	"radio:@5",              // empty payload
	"radio:abc@5",           // odd-length hex
	"laser:0x10@5",          // unknown kind
	"sram:0x10@not-a-cycle", // bad cycle
	// Strictness pins: no trailing garbage, signs, or lax field forms
	// may slip through anywhere in the spec or after @CYCLE.
	"sram:0x10:1@5@6",    // second @: trailing garbage after the cycle
	"sram:0x10:1@5 ",     // trailing whitespace after the cycle
	"sram:0x10:1@5junk",  // trailing letters fused to the cycle
	"sram:0x10:1@+5",     // signed cycle
	"sram:0x10:1@-5",     // negative cycle
	"sram:0x10:1@",       // empty cycle
	"sram:+0x10:1@5",     // signed address
	"sram:0x10:1:@5",     // trailing empty field in the spec
	"reg:5@5",            // register without the required r prefix
	"reg:r0x11@5",        // register index must be decimal
	"reg:rr4@5",          // doubled prefix
	"reg:r@5",            // prefix without an index
	"radio:a1b2@",        // empty cycle on the payload form
	"radio:a1 b2@5",      // whitespace inside the hex payload
	"smash:4:0x1FF@5",    // smash value wider than a byte
	"burst:0x10:300:1@5", // burst length wider than a byte
	"@5",                 // empty spec
	"sram:0x10:1",        // missing @CYCLE entirely
	// Data addresses past the data space would wrap onto other bytes.
	"sram:0x1100@5",      // one past the last data byte
	"sram:0x2000:1@5",    // far past it
	"burst:0x10F8:16@5",  // burst runs off the end
	"burst:0x1100:1:0@5", // burst starts past the end
}

func TestParseInjectErrors(t *testing.T) {
	for _, s := range badInjects {
		if in, err := ParseInject(s); err == nil {
			t.Errorf("ParseInject(%q) accepted as %+v; want error", s, in)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, name := range kindNames {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
	if Kind(0).String() != "kind(0)" {
		t.Errorf("zero kind renders %q", Kind(0).String())
	}
	if (Injection{Kind: Kind(99), At: 7}).String() != "kind(99)@7" {
		t.Errorf("unknown-kind injection renders %q", Injection{Kind: Kind(99), At: 7}.String())
	}
}

// loopMachine builds a bare machine running a two-word infinite loop
// (rjmp .-0 twice is unreachable; one rjmp -1 self-loop) so injections can
// fire at chosen cycles without a kernel underneath.
func loopMachine(t *testing.T) *mcu.Machine {
	t.Helper()
	m := mcu.New()
	if err := m.LoadFlash(0, []uint16{0xCFFF}); err != nil { // rjmp .-2: spin at pc 0
		t.Fatal(err)
	}
	m.SetSP(0x10FF)
	return m
}

func TestApplyPerKind(t *testing.T) {
	m := loopMachine(t)

	Injection{Kind: KindSRAMFlip, Addr: 0x200, Bit: 3}.Apply(m)
	if m.Peek(0x200) != 1<<3 {
		t.Errorf("sram flip: byte is %#x, want %#x", m.Peek(0x200), 1<<3)
	}

	Injection{Kind: KindSRAMBurst, Addr: 0x300, Len: 4, Bit: 1}.Apply(m)
	for i := uint16(0); i < 4; i++ {
		if m.Peek(0x300+i) != 1<<1 {
			t.Errorf("burst flip byte %d: %#x, want %#x", i, m.Peek(0x300+i), 1<<1)
		}
	}
	if m.Peek(0x304) != 0 {
		t.Error("burst flipped past its length")
	}

	Injection{Kind: KindRegFlip, Reg: 20, Bit: 7}.Apply(m)
	if m.Reg(20) != 1<<7 {
		t.Errorf("reg flip: r20 is %#x, want %#x", m.Reg(20), 1<<7)
	}

	Injection{Kind: KindStackSmash, Len: 3, Value: 0xCC}.Apply(m)
	sp := m.SP()
	for i := uint16(1); i <= 3; i++ {
		if m.Peek(sp+i) != 0xCC {
			t.Errorf("smash byte at sp+%d: %#x, want 0xcc", i, m.Peek(sp+i))
		}
	}

	// pushWord leaves the low byte at the higher address; retaddr must
	// write hi at SP+1, lo at SP+2.
	Injection{Kind: KindRetAddr, Addr: 0x1234}.Apply(m)
	if m.Peek(sp+1) != 0x12 || m.Peek(sp+2) != 0x34 {
		t.Errorf("retaddr wrote %#x %#x at sp+1/sp+2, want 0x12 0x34", m.Peek(sp+1), m.Peek(sp+2))
	}

	Injection{Kind: KindRadio, Payload: []byte{1, 2, 3}}.Apply(m)
	// Delivery through the receive path is covered by the campaign tests;
	// here it must simply not fault the bare machine.
}

// TestArmFiresAtCycle checks the one-shot hook fires at the first step at
// or past the armed cycle.
func TestArmFiresAtCycle(t *testing.T) {
	m := loopMachine(t)
	in := Injection{Kind: KindSRAMFlip, Addr: 0x250, Bit: 0, At: 10}
	in.Arm(m)
	if err := m.Run(40); err != nil {
		t.Fatal(err)
	}
	if m.Peek(0x250) != 1 {
		t.Errorf("armed injection did not land: byte is %#x", m.Peek(0x250))
	}
}

// TestArmAllChains checks multiple injections on the single one-shot hook
// fire in cycle order, including two due at the same firing.
func TestArmAllChains(t *testing.T) {
	m := loopMachine(t)
	ins := []Injection{
		{Kind: KindSRAMFlip, Addr: 0x282, Bit: 2, At: 30},
		{Kind: KindSRAMFlip, Addr: 0x280, Bit: 0, At: 10},
		{Kind: KindSRAMFlip, Addr: 0x283, Bit: 3, At: 30}, // same cycle as 0x282
		{Kind: KindSRAMFlip, Addr: 0x281, Bit: 1, At: 20},
	}
	ArmAll(m, ins)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{1, 2, 4, 8} {
		a := uint16(0x280 + i)
		if m.Peek(a) != want {
			t.Errorf("chained injection %d: byte at %#x is %#x, want %#x", i, a, m.Peek(a), want)
		}
	}
}

func TestArmAllEmpty(t *testing.T) {
	m := loopMachine(t)
	ArmAll(m, nil) // must not arm anything
	if err := m.Run(20); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseInject: whatever parses must render through String to a flag
// that parses back to the same injection.
func FuzzParseInject(f *testing.F) {
	for _, c := range injectForms {
		f.Add(c.in)
	}
	for _, s := range badInjects {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		in, err := ParseInject(s)
		if err != nil {
			return
		}
		again, err := ParseInject(in.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose rendering %q does not parse: %v", s, in, in.String(), err)
		}
		if !reflect.DeepEqual(again, in) {
			t.Fatalf("%q: %+v renders as %q, which parses to %+v", s, in, in.String(), again)
		}
	})
}
