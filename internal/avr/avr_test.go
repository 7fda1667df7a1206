package avr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// knownEncodings are byte patterns produced by avr-gcc / documented in the
// AVR instruction-set manual.
var knownEncodings = []struct {
	name string
	give Inst
	want []uint16
}{
	{"nop", Inst{Op: OpNop}, []uint16{0x0000}},
	{"movw r24,r22", Inst{Op: OpMovw, Dst: 24, Src: 22}, []uint16{0x01CB}},
	{"add r1,r2", Inst{Op: OpAdd, Dst: 1, Src: 2}, []uint16{0x0C12}},
	{"adc r5,r21", Inst{Op: OpAdc, Dst: 5, Src: 21}, []uint16{0x1E55}},
	{"ldi r16,0xFF", Inst{Op: OpLdi, Dst: 16, Imm: 0xFF}, []uint16{0xEF0F}},
	{"rjmp .-2", Inst{Op: OpRjmp, Imm: -1}, []uint16{0xCFFF}},
	{"ret", Inst{Op: OpRet}, []uint16{0x9508}},
	{"reti", Inst{Op: OpReti}, []uint16{0x9518}},
	{"push r28", Inst{Op: OpPush, Dst: 28}, []uint16{0x93CF}},
	{"pop r29", Inst{Op: OpPop, Dst: 29}, []uint16{0x91DF}},
	{"in r28,SPL", Inst{Op: OpIn, Dst: 28, Imm: 0x3D}, []uint16{0xB7CD}},
	{"out SPH,r29", Inst{Op: OpOut, Dst: 29, Imm: 0x3E}, []uint16{0xBFDE}},
	{"ldd r24,Y+1", Inst{Op: OpLddY, Dst: 24, Imm: 1}, []uint16{0x8189}},
	{"std Y+1,r24", Inst{Op: OpStdY, Dst: 24, Imm: 1}, []uint16{0x8389}},
	{"lds r24,0x100", Inst{Op: OpLds, Dst: 24, Imm: 0x100}, []uint16{0x9180, 0x0100}},
	{"sts 0x100,r24", Inst{Op: OpSts, Dst: 24, Imm: 0x100}, []uint16{0x9380, 0x0100}},
	{"jmp 0", Inst{Op: OpJmp, Imm: 0}, []uint16{0x940C, 0x0000}},
	{"call 0x80", Inst{Op: OpCall, Imm: 0x80}, []uint16{0x940E, 0x0080}},
	{"breq .-4", Inst{Op: OpBrbs, Src: FlagZ, Imm: -2}, []uint16{0xF3F1}},
	{"brne .+2", Inst{Op: OpBrbc, Src: FlagZ, Imm: 1}, []uint16{0xF409}},
	{"sbiw r24,1", Inst{Op: OpSbiw, Dst: 24, Imm: 1}, []uint16{0x9701}},
	{"adiw r30,63", Inst{Op: OpAdiw, Dst: 30, Imm: 63}, []uint16{0x96FF}},
	{"ijmp", Inst{Op: OpIjmp}, []uint16{0x9409}},
	{"icall", Inst{Op: OpIcall}, []uint16{0x9509}},
	{"sleep", Inst{Op: OpSleep}, []uint16{0x9588}},
	{"lpm", Inst{Op: OpLpm}, []uint16{0x95C8}},
	{"lpm r24,Z+", Inst{Op: OpLpmZInc, Dst: 24}, []uint16{0x9185}},
	{"ld r24,X+", Inst{Op: OpLdXInc, Dst: 24}, []uint16{0x918D}},
	{"st -Y,r0", Inst{Op: OpStYDec, Dst: 0}, []uint16{0x920A}},
	{"cpi r17,10", Inst{Op: OpCpi, Dst: 17, Imm: 10}, []uint16{0x301A}},
	{"sbrc r2,3", Inst{Op: OpSbrc, Dst: 2, Imm: 3}, []uint16{0xFC23}},
	{"sbi 0x18,7", Inst{Op: OpSbi, Dst: 0x18, Imm: 7}, []uint16{0x9AC7}},
	{"cbi 0x12,0", Inst{Op: OpCbi, Dst: 0x12, Imm: 0}, []uint16{0x9890}},
	{"bset I (sei)", Inst{Op: OpBset, Dst: FlagI}, []uint16{0x9478}},
	{"bclr I (cli)", Inst{Op: OpBclr, Dst: FlagI}, []uint16{0x94F8}},
	{"ktrap 7", Inst{Op: OpKtrap, Imm: 7}, []uint16{0x9598, 0x0007}},
}

// TestKnownEncodings pins our encoder to knownEncodings.
func TestKnownEncodings(t *testing.T) {
	for _, tt := range knownEncodings {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Encode(tt.give)
			if err != nil {
				t.Fatalf("Encode(%+v): %v", tt.give, err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("Encode(%+v) = %#v, want %#v", tt.give, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Encode(%+v) = %#v, want %#v", tt.give, got, tt.want)
				}
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("Decode(%#v): %v", got, err)
			}
			if back != tt.give {
				t.Fatalf("Decode(Encode(%+v)) = %+v", tt.give, back)
			}
		})
	}
}

// randomInst draws a random valid instruction, used by the round-trip
// property test.
func randomInst(r *rand.Rand) Inst {
	reg := func() uint8 { return uint8(r.Intn(32)) }
	hreg := func() uint8 { return uint8(16 + r.Intn(16)) }
	imm8 := func() int32 { return int32(r.Intn(256)) }
	bit := func() int32 { return int32(r.Intn(8)) }

	ops := []func() Inst{
		func() Inst { return Inst{Op: OpNop} },
		func() Inst { return Inst{Op: OpAdd, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpAdc, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpSub, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpSbc, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpAnd, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpOr, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpEor, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpMov, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpCp, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpCpc, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpCpse, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpMul, Dst: reg(), Src: reg()} },
		func() Inst { return Inst{Op: OpMovw, Dst: uint8(r.Intn(16)) * 2, Src: uint8(r.Intn(16)) * 2} },
		func() Inst { return Inst{Op: OpSubi, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpSbci, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpAndi, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpOri, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpCpi, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpLdi, Dst: hreg(), Imm: imm8()} },
		func() Inst { return Inst{Op: OpCom, Dst: reg()} },
		func() Inst { return Inst{Op: OpNeg, Dst: reg()} },
		func() Inst { return Inst{Op: OpSwap, Dst: reg()} },
		func() Inst { return Inst{Op: OpInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpAsr, Dst: reg()} },
		func() Inst { return Inst{Op: OpLsr, Dst: reg()} },
		func() Inst { return Inst{Op: OpRor, Dst: reg()} },
		func() Inst { return Inst{Op: OpAdiw, Dst: uint8(24 + 2*r.Intn(4)), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpSbiw, Dst: uint8(24 + 2*r.Intn(4)), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpBset, Dst: uint8(r.Intn(8))} },
		func() Inst { return Inst{Op: OpBclr, Dst: uint8(r.Intn(8))} },
		func() Inst { return Inst{Op: OpRjmp, Imm: int32(r.Intn(4096) - 2048)} },
		func() Inst { return Inst{Op: OpRcall, Imm: int32(r.Intn(4096) - 2048)} },
		func() Inst { return Inst{Op: OpJmp, Imm: int32(r.Intn(1 << 22))} },
		func() Inst { return Inst{Op: OpCall, Imm: int32(r.Intn(1 << 22))} },
		func() Inst { return Inst{Op: OpBrbs, Src: uint8(r.Intn(8)), Imm: int32(r.Intn(128) - 64)} },
		func() Inst { return Inst{Op: OpBrbc, Src: uint8(r.Intn(8)), Imm: int32(r.Intn(128) - 64)} },
		func() Inst { return Inst{Op: OpSbrc, Dst: reg(), Imm: bit()} },
		func() Inst { return Inst{Op: OpSbrs, Dst: reg(), Imm: bit()} },
		func() Inst { return Inst{Op: OpSbic, Dst: uint8(r.Intn(32)), Imm: bit()} },
		func() Inst { return Inst{Op: OpSbis, Dst: uint8(r.Intn(32)), Imm: bit()} },
		func() Inst { return Inst{Op: OpSbi, Dst: uint8(r.Intn(32)), Imm: bit()} },
		func() Inst { return Inst{Op: OpCbi, Dst: uint8(r.Intn(32)), Imm: bit()} },
		func() Inst { return Inst{Op: OpIn, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpOut, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpLds, Dst: reg(), Imm: int32(r.Intn(0x10000))} },
		func() Inst { return Inst{Op: OpSts, Dst: reg(), Imm: int32(r.Intn(0x10000))} },
		func() Inst { return Inst{Op: OpLdX, Dst: reg()} },
		func() Inst { return Inst{Op: OpLdXInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpLdXDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpLdYInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpLdYDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpLddY, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpLdZInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpLdZDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpLddZ, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpPop, Dst: reg()} },
		func() Inst { return Inst{Op: OpStX, Dst: reg()} },
		func() Inst { return Inst{Op: OpStXInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpStXDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpStYInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpStYDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpStdY, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpStZInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpStZDec, Dst: reg()} },
		func() Inst { return Inst{Op: OpStdZ, Dst: reg(), Imm: int32(r.Intn(64))} },
		func() Inst { return Inst{Op: OpPush, Dst: reg()} },
		func() Inst { return Inst{Op: OpLpm} },
		func() Inst { return Inst{Op: OpLpmZ, Dst: reg()} },
		func() Inst { return Inst{Op: OpLpmZInc, Dst: reg()} },
		func() Inst { return Inst{Op: OpKtrap, Imm: int32(r.Intn(0x10000))} },
		func() Inst { return Inst{Op: OpSleep} },
		func() Inst { return Inst{Op: OpWdr} },
		func() Inst { return Inst{Op: OpIjmp} },
		func() Inst { return Inst{Op: OpIcall} },
		func() Inst { return Inst{Op: OpRet} },
		func() Inst { return Inst{Op: OpReti} },
	}
	return ops[r.Intn(len(ops))]()
}

// TestEncodeDecodeRoundTrip is the core property: every valid instruction
// survives encode→decode unchanged.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 64; i++ {
			in := randomInst(r)
			words, err := Encode(in)
			if err != nil {
				t.Logf("Encode(%+v): %v", in, err)
				return false
			}
			if len(words) != in.Words() {
				t.Logf("%+v: encoded %d words, Words()=%d", in, len(words), in.Words())
				return false
			}
			back, err := Decode(words)
			if err != nil {
				t.Logf("Decode(Encode(%+v)) = %#v: %v", in, words, err)
				return false
			}
			if back != in {
				t.Logf("round trip %+v -> %#v -> %+v", in, words, back)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(nil) err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]uint16{0x9180}); !errors.Is(err, ErrTruncated) {
		t.Errorf("Decode(truncated lds) err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]uint16{0xFFFF}); !errors.Is(err, ErrUnknownInst) {
		t.Errorf("Decode(0xFFFF) err = %v, want ErrUnknownInst", err)
	}
}

func TestEncodeOperandValidation(t *testing.T) {
	tests := []Inst{
		{Op: OpLdi, Dst: 3, Imm: 1},    // LDI needs r16..r31
		{Op: OpLdi, Dst: 16, Imm: 300}, // immediate too large
		{Op: OpAdiw, Dst: 25, Imm: 1},  // ADIW needs r24/26/28/30
		{Op: OpRjmp, Imm: 5000},        // 12-bit displacement
		{Op: OpBrbs, Src: 1, Imm: 100}, // 7-bit displacement
		{Op: OpMovw, Dst: 3, Src: 2},   // odd pair
		{Op: OpLddY, Dst: 1, Imm: 70},  // 6-bit displacement
		{Op: OpIn, Dst: 1, Imm: 100},   // I/O address 0..63
		{Op: OpSbi, Dst: 40, Imm: 1},   // I/O address 0..31
		{Op: OpJmp, Imm: 1 << 23},      // 22-bit address
		{Op: OpInvalid},                // not an op
	}
	for _, in := range tests {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v): expected error", in)
		}
	}
}

func TestInstClassification(t *testing.T) {
	if !(Inst{Op: OpLdX}).IsMemAccess() || (Inst{Op: OpLdX}).IsStore() {
		t.Error("LD X should be a load mem access")
	}
	if !(Inst{Op: OpSts}).IsDirectMem() || !(Inst{Op: OpSts}).IsStore() {
		t.Error("STS should be a direct store")
	}
	if p, ok := (Inst{Op: OpStdY}).PointerReg(); !ok || p != RegY {
		t.Errorf("STD Y pointer reg = %d, %v", p, ok)
	}
	if !(Inst{Op: OpLdXInc}).PointerMutates() {
		t.Error("LD X+ mutates its pointer")
	}
	if (Inst{Op: OpLddZ}).PointerMutates() {
		t.Error("LDD Z+q does not mutate its pointer")
	}
	if !(Inst{Op: OpBrbs}).IsBranch() || (Inst{Op: OpJmp}).IsBranch() {
		t.Error("branch classification wrong")
	}
	if !(Inst{Op: OpRcall}).IsCall() || !(Inst{Op: OpIcall}).IsCall() {
		t.Error("call classification wrong")
	}
	if !(Inst{Op: OpIjmp}).IsIndirectJump() {
		t.Error("IJMP is an indirect jump")
	}
	in := Inst{Op: OpIn, Dst: 1, Imm: IOSpl}
	if !in.ReadsSP() {
		t.Error("IN r1,SPL reads SP")
	}
	out := Inst{Op: OpOut, Dst: 1, Imm: IOSph}
	if !out.WritesSP() {
		t.Error("OUT SPH,r1 writes SP")
	}
	if a, ok := (Inst{Op: OpSbic, Dst: 0x19, Imm: 2}).IOAddr(); !ok || a != 0x19 {
		t.Errorf("SBIC IOAddr = %#x, %v", a, ok)
	}
	br := Inst{Op: OpRjmp, Imm: -3}
	if got := br.RelTarget(10); got != 8 {
		t.Errorf("RelTarget = %d, want 8", got)
	}
	if !(Inst{Op: OpCpse}).IsSkip() || !(Inst{Op: OpCpse}).IsControlTransfer() {
		t.Error("CPSE is a skip / control transfer")
	}
}

func TestDisasmSmoke(t *testing.T) {
	words := []uint16{}
	for _, in := range []Inst{
		{Op: OpLdi, Dst: 16, Imm: 10},
		{Op: OpPush, Dst: 16},
		{Op: OpCall, Imm: 0x40},
		{Op: OpBrbs, Src: FlagZ, Imm: -2},
		{Op: OpKtrap, Imm: 3},
		{Op: OpRet},
	} {
		w, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w...)
	}
	text := DisasmWords(words)
	for _, want := range []string{"ldi r16, 10", "push r16", "call 0x40", "breq .-2", "ktrap 3", "ret"} {
		if !contains(text, want) {
			t.Errorf("DisasmWords output missing %q:\n%s", want, text)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

// FuzzDecode feeds the decoder one or two arbitrary words. Whatever decodes
// must re-encode to words that decode to the same instruction; the re-decode
// keeps the original trailing word, because what follows a word can change
// its meaning (BREAK followed by an id word is KTRAP).
func FuzzDecode(f *testing.F) {
	for _, tt := range knownEncodings {
		var next uint16
		if len(tt.want) > 1 {
			next = tt.want[1]
		}
		f.Add(tt.want[0], next, len(tt.want) > 1)
	}
	f.Fuzz(func(t *testing.T, w0, w1 uint16, two bool) {
		words := []uint16{w0}
		if two {
			words = append(words, w1)
		}
		in, err := Decode(words)
		if err != nil {
			return
		}
		enc, err := Encode(in)
		if err != nil {
			t.Fatalf("Decode(%#x) = %+v, which does not encode: %v", words, in, err)
		}
		if len(enc) != in.Words() {
			t.Fatalf("%+v encoded to %d words, Words() = %d", in, len(enc), in.Words())
		}
		back, err := Decode(append(enc, words[len(enc):]...))
		if err != nil || back != in {
			t.Fatalf("Decode(%#x) = %+v, re-encoded %#x decodes to %+v (%v)", words, in, enc, back, err)
		}
	})
}
