package profile

import "testing"

// watchForms are well-formed -watch flags and what they parse to.
var watchForms = []struct {
	in   string
	want Watchpoint
}{
	{"0x100", Watchpoint{Addr: 0x100, Len: 1, Read: true, Write: true}},
	{"256", Watchpoint{Addr: 256, Len: 1, Read: true, Write: true}},
	{"0x100:2", Watchpoint{Addr: 0x100, Len: 2, Read: true, Write: true}},
	{"0x100:2:r", Watchpoint{Addr: 0x100, Len: 2, Read: true}},
	{"0x100:2:w", Watchpoint{Addr: 0x100, Len: 2, Write: true}},
	{"0x100:2:rw", Watchpoint{Addr: 0x100, Len: 2, Read: true, Write: true}},
	{"0x100:2:wr", Watchpoint{Addr: 0x100, Len: 2, Read: true, Write: true}},
	{"0x100:w", Watchpoint{Addr: 0x100, Len: 1, Write: true}}, // len omitted
	{"0xffff:1", Watchpoint{Addr: 0xffff, Len: 1, Read: true, Write: true}},
}

// badWatches are -watch flags ParseWatch must reject.
var badWatches = []string{"", "zz", "0x10000", "0x100:0", "0xffff:2", "0x100:2:x", "0x100:2:rw:extra"}

func TestParseWatch(t *testing.T) {
	for _, c := range watchForms {
		got, err := ParseWatch(c.in)
		if err != nil {
			t.Errorf("ParseWatch(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseWatch(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}

	for _, bad := range badWatches {
		if wp, err := ParseWatch(bad); err == nil {
			t.Errorf("ParseWatch(%q) = %+v, want error", bad, wp)
		}
	}
}

func TestWatchpointStringRoundTrip(t *testing.T) {
	for _, in := range []string{"0x100:2:rw", "0x100:1:r", "0x120:4:w"} {
		wp, err := ParseWatch(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseWatch(wp.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", wp.String(), err)
		}
		if back != wp {
			t.Errorf("%q -> %+v -> %q -> %+v", in, wp, wp.String(), back)
		}
	}
}

func TestWatching(t *testing.T) {
	p := New(Options{})
	p.AddWatch(Watchpoint{Addr: 0x100, Len: 2, Write: true})
	p.AddWatch(Watchpoint{Addr: 0x200, Read: true}) // Len 0 normalizes to 1

	if len(p.Watches()) != 2 {
		t.Fatalf("Watches() = %v", p.Watches())
	}
	cases := []struct {
		addr  uint16
		write bool
		want  bool
	}{
		{0x100, true, true},
		{0x101, true, true},
		{0x102, true, false},  // past the range
		{0x100, false, false}, // write-only watch ignores reads
		{0x200, false, true},
		{0x200, true, false},
		{0x0ff, true, false},
	}
	for _, c := range cases {
		if got := p.Watching(c.addr, c.write); got != c.want {
			t.Errorf("Watching(%#x, write=%v) = %v, want %v", c.addr, c.write, got, c.want)
		}
	}
}

// FuzzParseWatch: whatever parses must render through String to a flag
// that parses back to the same watchpoint.
func FuzzParseWatch(f *testing.F) {
	for _, c := range watchForms {
		f.Add(c.in)
	}
	for _, s := range badWatches {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		wp, err := ParseWatch(s)
		if err != nil {
			return
		}
		back, err := ParseWatch(wp.String())
		if err != nil || back != wp {
			t.Fatalf("%q parsed to %+v, rendered %q, re-parsed to %+v (%v)", s, wp, wp.String(), back, err)
		}
	})
}
