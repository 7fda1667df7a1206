package progs

import (
	"errors"
	"fmt"

	"repro/internal/image"
	"repro/internal/mcu"
)

// NativeResult is the outcome of a bare-metal run.
type NativeResult struct {
	Cycles     uint64
	IdleCycles uint64
	Machine    *mcu.Machine
}

// Seconds converts the cycle count to wall time on the 7.3728 MHz mote.
func (r NativeResult) Seconds() float64 {
	return float64(r.Cycles) / float64(mcu.ClockHz)
}

// RunNative executes prog on a bare machine (no OS) until its final BREAK,
// as the "native" series of Figures 5 and 6. It initializes the program's
// .data section the way a real runtime's startup code would.
func RunNative(prog *image.Program, limit uint64) (NativeResult, error) {
	return RunNativeOn(mcu.New(), prog, limit)
}

// RunNativeOn is RunNative on a fresh machine the caller has prepared, such
// as one with an energy meter attached.
func RunNativeOn(m *mcu.Machine, prog *image.Program, limit uint64) (NativeResult, error) {
	if err := m.LoadFlash(0, prog.Words); err != nil {
		return NativeResult{}, err
	}
	LoadData(m, prog)
	m.SetPC(prog.Entry)
	err := m.Run(limit)
	var f *mcu.Fault
	if errors.As(err, &f) && f.Kind == mcu.FaultBreak {
		return NativeResult{Cycles: m.Cycles(), IdleCycles: m.IdleCycles(), Machine: m}, nil
	}
	if err == nil {
		return NativeResult{}, fmt.Errorf("progs: %s hit the %d-cycle limit", prog.Name, limit)
	}
	return NativeResult{}, fmt.Errorf("progs: %s: %w", prog.Name, err)
}

// LoadData copies the program's initialised data into the heap area, as the
// C runtime startup would on a real mote.
func LoadData(m *mcu.Machine, prog *image.Program) {
	for i, b := range prog.DataInit {
		m.Poke(prog.HeapBase+uint16(i), b)
	}
}

// HeapWord reads a little-endian 16-bit heap variable by symbol name after a
// native run.
func HeapWord(m *mcu.Machine, prog *image.Program, symbol string) (uint16, error) {
	s, ok := prog.Lookup(symbol)
	if !ok {
		return 0, fmt.Errorf("progs: %s has no symbol %q", prog.Name, symbol)
	}
	return uint16(m.Peek(uint16(s.Addr))) | uint16(m.Peek(uint16(s.Addr)+1))<<8, nil
}

// HeapByte reads an 8-bit heap variable by symbol name.
func HeapByte(m *mcu.Machine, prog *image.Program, symbol string) (byte, error) {
	s, ok := prog.Lookup(symbol)
	if !ok {
		return 0, fmt.Errorf("progs: %s has no symbol %q", prog.Name, symbol)
	}
	return m.Peek(uint16(s.Addr)), nil
}
