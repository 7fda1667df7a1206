package kernel

import (
	"testing"

	"repro/internal/mcu"
)

// TestTaskLogicalAddr pins the exported per-task address translation against
// the paper's formulas: heap bytes map to 0x100+offset, stack bytes map so
// that the region's top lands at logicalSPBase, and everything outside the
// region passes through untranslated.
func TestTaskLogicalAddr(t *testing.T) {
	// Region: heap [0x0200, 0x0300), stack (0x0300, 0x0400); stack size 0x100.
	tk := &Task{region: mcu.Region{PL: 0x0200, PH: 0x0300, PU: 0x0400}, spPhys: 0x03F0}

	cases := []struct {
		name string
		phys uint16
		want uint16
		ok   bool
	}{
		{"heap base", 0x0200, 0x0100, true},
		{"heap mid", 0x0280, 0x0180, true},
		{"heap last", 0x02FF, 0x01FF, true},
		{"stack base", 0x0300, logicalSPBase - 0x100, true},
		{"stack top", 0x03FF, logicalSPBase - 1, true},
		{"below region", 0x01FF, 0x01FF, false},
		{"above region", 0x0400, 0x0400, false},
		{"io space", 0x005F, 0x005F, false},
	}
	for _, c := range cases {
		got, ok := tk.LogicalAddr(c.phys)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: LogicalAddr(%#04x) = (%#04x, %v), want (%#04x, %v)",
				c.name, c.phys, got, ok, c.want, c.ok)
		}
	}

	// LogicalSP must agree with the stack translation applied to spPhys.
	if got, want := tk.LogicalSP(), uint16(int(tk.spPhys)+logicalSPBase-int(tk.region.PU)); got != want {
		t.Errorf("LogicalSP() = %#04x, want %#04x", got, want)
	}
}
