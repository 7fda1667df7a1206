package asm

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/avr"
	"repro/internal/image"
)

func TestAssembleBasicProgram(t *testing.T) {
	p, err := Assemble("basic", `
; simple counting loop
.equ COUNT, 10
main:
    ldi r16, COUNT
loop:
    dec r16
    brne loop
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Words) != 4 {
		t.Fatalf("got %d words, want 4:\n%s", len(p.Words), avr.DisasmWords(p.Words))
	}
	in, err := avr.Decode(p.Words)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != avr.OpLdi || in.Dst != 16 || in.Imm != 10 {
		t.Fatalf("first inst = %+v, want ldi r16,10", in)
	}
	// brne loop: loop is at word 1, brne is at word 2 -> disp = 1-(2+1) = -2.
	br, err := avr.Decode(p.Words[2:])
	if err != nil {
		t.Fatal(err)
	}
	if br.Op != avr.OpBrbc || br.Src != avr.FlagZ || br.Imm != -2 {
		t.Fatalf("branch = %+v, want brne disp -2", br)
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0 (main)", p.Entry)
	}
	if sym, ok := p.Lookup("loop"); !ok || sym.Addr != 1 || sym.Kind != image.SymCode {
		t.Errorf("loop symbol = %+v, %v", sym, ok)
	}
}

func TestAssembleDataSection(t *testing.T) {
	p, err := Assemble("data", `
.data
counter: .space 2
table:   .db 1, 2, 3, 4
msg:     .db 'h', 'i', 0
.text
main:
    lds r24, counter
    sts counter, r24
    ldi r30, lo8(table)
    ldi r31, hi8(table)
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.HeapSize != 9 {
		t.Errorf("heap size = %d, want 9", p.HeapSize)
	}
	counter, ok := p.Lookup("counter")
	if !ok || counter.Addr != HeapBase || counter.Kind != image.SymData {
		t.Errorf("counter = %+v, %v", counter, ok)
	}
	table, _ := p.Lookup("table")
	if table.Addr != HeapBase+2 {
		t.Errorf("table addr = %#x, want %#x", table.Addr, HeapBase+2)
	}
	// DataInit: 2 zero bytes for .space then 1,2,3,4,'h','i',0.
	wantInit := []byte{0, 0, 1, 2, 3, 4, 'h', 'i', 0}
	if len(p.DataInit) != len(wantInit) {
		t.Fatalf("data init = %v, want %v", p.DataInit, wantInit)
	}
	for i := range wantInit {
		if p.DataInit[i] != wantInit[i] {
			t.Fatalf("data init = %v, want %v", p.DataInit, wantInit)
		}
	}
	// lds r24, counter encodes the absolute heap address.
	in, err := avr.Decode(p.Words)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != avr.OpLds || in.Imm != int32(HeapBase) {
		t.Errorf("lds = %+v, want addr %#x", in, HeapBase)
	}
}

func TestAssemblePointerModes(t *testing.T) {
	p, err := Assemble("ptr", `
main:
    ld r0, X
    ld r1, X+
    ld r2, -X
    ld r3, Y
    ldd r4, Y+5
    ld r5, Z+
    st X+, r6
    std Z+63, r7
    st -Y, r8
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []avr.Op{
		avr.OpLdX, avr.OpLdXInc, avr.OpLdXDec, avr.OpLddY, avr.OpLddY,
		avr.OpLdZInc, avr.OpStXInc, avr.OpStdZ, avr.OpStYDec, avr.OpRet,
	}
	pc := 0
	for i, wantOp := range wantOps {
		in, err := avr.Decode(p.Words[pc:])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != wantOp {
			t.Fatalf("inst %d = %v, want %v", i, in.Op, wantOp)
		}
		if wantOp == avr.OpStdZ && in.Imm != 63 {
			t.Errorf("std displacement = %d, want 63", in.Imm)
		}
		pc += in.Words()
	}
}

func TestAssembleCallsAndJumps(t *testing.T) {
	p, err := Assemble("calls", `
main:
    call helper
    jmp done
helper:
    ret
done:
    rjmp done
`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := avr.Decode(p.Words)
	if in.Op != avr.OpCall || in.Imm != 4 {
		t.Fatalf("call = %+v, want target 4", in)
	}
	jmp, _ := avr.Decode(p.Words[2:])
	if jmp.Op != avr.OpJmp || jmp.Imm != 5 {
		t.Fatalf("jmp = %+v, want target 5", jmp)
	}
	rj, _ := avr.Decode(p.Words[5:])
	if rj.Op != avr.OpRjmp || rj.Imm != -1 {
		t.Fatalf("rjmp = %+v, want disp -1 (self loop)", rj)
	}
}

func TestAssembleDotRelative(t *testing.T) {
	p, err := Assemble("dot", `
main:
    rjmp .
    rjmp .-2
`)
	if err != nil {
		t.Fatal(err)
	}
	in0, _ := avr.Decode(p.Words)
	if in0.Imm != -1 {
		t.Errorf("rjmp . disp = %d, want -1", in0.Imm)
	}
	in1, _ := avr.Decode(p.Words[1:])
	if in1.Imm != -2 {
		t.Errorf("rjmp .-2 disp = %d, want -2", in1.Imm)
	}
}

func TestAssemblePredefinedRegisters(t *testing.T) {
	p, err := Assemble("io", `
main:
    in r28, SPL
    in r29, SPH
    out SREG, r0
    sbi PORTB, 1
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	in0, _ := avr.Decode(p.Words)
	if !in0.ReadsSP() {
		t.Errorf("in r28,SPL should read SP: %+v", in0)
	}
}

func TestAssembleStackAndEntryDirectives(t *testing.T) {
	p, err := Assemble("dir", `
.stack 96
.entry start
boot:
    nop
start:
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.StackReserve != 96 {
		t.Errorf("stack reserve = %d, want 96", p.StackReserve)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1", p.Entry)
	}
}

func TestAssembleAliases(t *testing.T) {
	p, err := Assemble("alias", `
main:
    clr r10
    lsl r11
    rol r12
    tst r13
    ser r16
    sei
    cli
    sec
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	wants := []avr.Inst{
		{Op: avr.OpEor, Dst: 10, Src: 10},
		{Op: avr.OpAdd, Dst: 11, Src: 11},
		{Op: avr.OpAdc, Dst: 12, Src: 12},
		{Op: avr.OpAnd, Dst: 13, Src: 13},
		{Op: avr.OpLdi, Dst: 16, Imm: 0xFF},
		{Op: avr.OpBset, Dst: avr.FlagI},
		{Op: avr.OpBclr, Dst: avr.FlagI},
		{Op: avr.OpBset, Dst: avr.FlagC},
		{Op: avr.OpRet},
	}
	pc := 0
	for i, want := range wants {
		got, err := avr.Decode(p.Words[pc:])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("inst %d = %+v, want %+v", i, got, want)
		}
		pc += got.Words()
	}
}

// badSources are programs Assemble must reject.
var badSources = []struct {
	name string
	src  string
}{
	{"unknown mnemonic", "main:\n frob r1\n"},
	{"bad register", "main:\n ldi r40, 1\n ret\n"},
	{"ldi low register", "main:\n ldi r3, 1\n ret\n"},
	{"undefined symbol", "main:\n rjmp nowhere\n"},
	{"duplicate label", "a:\na:\n ret\n"},
	{"branch out of range", "main:\n breq far\n.org 200\nfar: ret\n"},
	{"bad directive", ".bogus 1\nmain: ret\n"},
	{"space in text", ".text\n.space 4\nmain: ret\n"},
	{"missing entry", ".entry nope\nmain: ret\n"},
	{"odd db in text", "main:\n.db 1,2,3\n ret\n"},
}

func TestAssembleErrors(t *testing.T) {
	for _, tt := range badSources {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Assemble("bad", tt.src); err == nil {
				t.Fatalf("expected error for %q", tt.src)
			}
		})
	}
}

func TestAssembleErrorHasPosition(t *testing.T) {
	_, err := Assemble("pos", "main:\n nop\n frob\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %T is not *Error", err)
	}
	if ae.Line != 3 {
		t.Errorf("error line = %d, want 3", ae.Line)
	}
	if !strings.Contains(err.Error(), "pos:3") {
		t.Errorf("error text %q should contain file:line", err)
	}
}

func TestAssembleProgramTableWithLpm(t *testing.T) {
	p, err := Assemble("lpmtab", `
main:
    ldi r30, lo8(pmbyte(tab))
    ldi r31, hi8(pmbyte(tab))
    lpm r24, Z+
    lpm r25, Z
    ret
tab:
    .dw 0x1234, 0xBEEF
`)
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := p.Lookup("tab")
	if !ok {
		t.Fatal("no tab symbol")
	}
	if p.Words[tab.Addr] != 0x1234 || p.Words[tab.Addr+1] != 0xBEEF {
		t.Errorf("table contents wrong: %#x %#x", p.Words[tab.Addr], p.Words[tab.Addr+1])
	}
	in0, _ := avr.Decode(p.Words)
	if in0.Imm != int32(tab.Addr*2&0xFF) {
		t.Errorf("lo8(pmbyte(tab)) = %d, want %d", in0.Imm, tab.Addr*2&0xFF)
	}
}

// FuzzAssemble feeds the assembler arbitrary source. It must reject what it
// cannot assemble with an error, never a panic, and assemble the rest the
// same way every time.
func FuzzAssemble(f *testing.F) {
	for _, tt := range badSources {
		f.Add(tt.src)
	}
	f.Add(".equ COUNT, 10\nmain:\n ldi r16, COUNT\nloop:\n dec r16\n brne loop\n ret\n")
	f.Add(".data\ncounter: .space 2\ntable: .db 1, 2\n.text\nmain:\n lds r24, counter\n ret\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble("fuzz", src)
		if err != nil {
			return
		}
		again, err := Assemble("fuzz", src)
		if err != nil || !slices.Equal(again.Words, p.Words) || again.Entry != p.Entry {
			t.Fatalf("assembling %q twice disagrees (%v)", src, err)
		}
	})
}
