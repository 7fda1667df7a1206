package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/avr/asm"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// dna turns a fuzzer-controlled byte string into an unbounded stream of
// small decisions, so that every input — including mutated garbage — maps to
// a valid program. Bytes repeat from the start when the string runs out.
type dna struct {
	data []byte
	pos  int
}

func (d *dna) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[d.pos%len(d.data)]
	d.pos++
	return b
}

func (d *dna) intn(n int) int { return int(d.next()) % n }

// regSkip emits a skip that tests a generator register: SBRS or SBRC on one
// of its bits, or CPSE against another.
func regSkip(d *dna) string {
	r := 16 + d.intn(10)
	switch d.intn(3) {
	case 0:
		return fmt.Sprintf("sbrs r%d, %d", r, d.intn(8))
	case 1:
		return fmt.Sprintf("sbrc r%d, %d", r, d.intn(8))
	}
	return fmt.Sprintf("cpse r%d, r%d", r, 16+d.intn(10))
}

// programFromDNA emits a random-but-valid AVR program from the decision
// stream: ALU work, direct and indirect heap accesses, displacement
// accesses, forward branches, calls, bounded loops, program-memory reads,
// push/pop pairs, register skips and UART poll loops — every instruction
// class the rewriter patches, and the skip and poll shapes the fused tier
// ends its blocks with. The mix mirrors the kernel package's randomProgram
// generator, but driven by fuzz bytes instead of a PRNG so the fuzzer can
// explore the space.
func programFromDNA(d *dna) string {
	var b strings.Builder
	b.WriteString(".data\nbuf: .space 48\n.text\nmain:\n")
	for i := 16; i <= 25; i++ {
		fmt.Fprintf(&b, "    ldi r%d, %d\n", i, d.intn(256))
	}
	b.WriteString("    ldi r26, lo8(buf)\n    ldi r27, hi8(buf)\n")
	b.WriteString("    ldi r28, lo8(buf+16)\n    ldi r29, hi8(buf+16)\n")

	label := 0
	n := 8 + d.intn(28)
	// poll emits the UDRE wait of the progs putc idiom, closed by a
	// backward jump that the rewriter turns into a kernel branch trap, so
	// the loop is a skip over a trap. Closed by RJMP, it leaves r17 holding
	// UCSR0A with only UDRE set, whatever the timing.
	uart := false
	poll := func(jump string) {
		fmt.Fprintf(&b, "L%d:\n    in r17, UCSR0A\n    sbrs r17, 5\n    %s L%d\n", label, jump, label)
		label++
	}
	putc := func() {
		poll("rjmp")
		fmt.Fprintf(&b, "    out UDR0, r%d\n", 16+d.intn(10))
		uart = true
	}
	for i := 0; i < n; i++ {
		switch d.intn(15) {
		case 0:
			fmt.Fprintf(&b, "    add r%d, r%d\n", 16+d.intn(10), 16+d.intn(10))
		case 1:
			fmt.Fprintf(&b, "    eor r%d, r%d\n", 16+d.intn(10), 16+d.intn(10))
		case 2:
			fmt.Fprintf(&b, "    subi r%d, %d\n", 16+d.intn(10), d.intn(256))
		case 3:
			fmt.Fprintf(&b, "    sts buf+%d, r%d\n", d.intn(48), 16+d.intn(10))
		case 4:
			fmt.Fprintf(&b, "    lds r%d, buf+%d\n", 16+d.intn(10), d.intn(48))
		case 5:
			// Indirect store then reload through X, pointer reset first so
			// the access stays inside buf.
			off := d.intn(40)
			fmt.Fprintf(&b, "    ldi r26, lo8(buf+%d)\n    ldi r27, hi8(buf+%d)\n", off, off)
			fmt.Fprintf(&b, "    st X+, r%d\n    ld r%d, -X\n", 16+d.intn(10), 16+d.intn(10))
		case 6:
			// Displacement access through Y (points at buf+16).
			fmt.Fprintf(&b, "    std Y+%d, r%d\n    ldd r%d, Y+%d\n",
				d.intn(16), 16+d.intn(10), 16+d.intn(10), d.intn(16))
		case 7:
			fmt.Fprintf(&b, "    tst r%d\n    breq L%d\n    inc r%d\nL%d:\n",
				16+d.intn(10), label, 16+d.intn(10), label)
			label++
		case 8:
			fmt.Fprintf(&b, "    rcall fn%d\n", d.intn(2))
		case 9:
			// Bounded backward loop (3..9 iterations).
			fmt.Fprintf(&b, "    ldi r%d, %d\nL%d:\n    dec r%d\n    brne L%d\n",
				16+d.intn(4), 3+d.intn(7), label, 16+d.intn(4), label)
			label++
		case 10:
			fmt.Fprintf(&b, "    ldi r30, lo8(pmbyte(tab))\n    ldi r31, hi8(pmbyte(tab))\n")
			fmt.Fprintf(&b, "    lpm r%d, Z+\n    lpm r%d, Z\n", 16+d.intn(10), 16+d.intn(10))
		case 11:
			reg := 16 + d.intn(10)
			fmt.Fprintf(&b, "    push r%d\n    pop r%d\n", reg, reg)
		case 12:
			fmt.Fprintf(&b, "    %s\n    add r%d, r%d\n", regSkip(d), 16+d.intn(10), 16+d.intn(10))
		case 13:
			// The rewriter turns the heap access into a KTRAP, so the pair
			// ends its block as a skip over a trap.
			if d.intn(2) == 0 {
				fmt.Fprintf(&b, "    %s\n    sts buf+%d, r%d\n", regSkip(d), d.intn(48), 16+d.intn(10))
			} else {
				fmt.Fprintf(&b, "    %s\n    lds r%d, buf+%d\n", regSkip(d), 16+d.intn(10), d.intn(48))
			}
		case 14:
			// Two putc calls, so the second waits on the first byte. Then a
			// poll loop closed by a conditional branch on flags set before
			// it, which waits only when the branch is taken, so a putc
			// follows it.
			putc()
			putc()
			fmt.Fprintf(&b, "    %s\n", []string{"sez", "clz", "tst r16"}[d.intn(3)])
			poll([]string{"breq", "brne"}[d.intn(2)])
			putc()
		}
	}
	// A native run stops at BREAK, so let the last UART byte finish first.
	if uart {
		poll("rjmp")
	}
	// Clear pointer registers so register values are timing-independent at
	// comparison time.
	b.WriteString("    clr r26\n    clr r27\n    clr r30\n    clr r31\n")
	b.WriteString("    break\n")
	b.WriteString("fn0:\n    inc r24\n    ret\nfn1:\n    lsr r25\n    ret\n")
	fmt.Fprintf(&b, "tab:\n    .dw 0x%02x%02x, 0x%02x%02x\n",
		d.next(), d.next(), d.next(), d.next())
	return b.String()
}

// kernelRun is the end state of one naturalized run that must not depend on
// the interpreter tier.
type kernelRun struct {
	cycles, insts uint64
	regs          [32]byte
	region        []byte // the task's whole memory region
	maxStack      uint16
	metrics       string
}

// runNaturalized boots nat as the only task on a fresh machine set up by
// tier and runs it to limit; the task must exit cleanly.
func runNaturalized(t testing.TB, nat *rewriter.Naturalized, limit uint64, tier func(*mcu.Machine)) (*mcu.Machine, *kernel.Task, kernelRun) {
	t.Helper()
	m := mcu.New()
	tier(m)
	k := kernel.New(m, kernel.Config{})
	task, err := k.AddTask(nat.Orig.Name, nat)
	if err != nil {
		t.Fatalf("add task: %v", err)
	}
	if err := k.Boot(); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if err := k.Run(limit); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
	if task.ExitReason != "exited" {
		t.Fatalf("task did not exit cleanly: %q", task.ExitReason)
	}
	r := kernelRun{cycles: m.Cycles(), insts: m.Instructions(), maxStack: task.MaxStackUsed,
		metrics: k.Metrics().Render()}
	for i := range r.regs {
		r.regs[i] = m.Reg(uint8(i))
	}
	pl, _, pu := task.Region()
	for a := pl; a < pu; a++ {
		r.region = append(r.region, m.Peek(a))
	}
	return m, task, r
}

// assertSameExecution runs prog natively and under the SenSmart
// rewriter+kernel and fails unless the final register file, the entire heap,
// and the UART output are identical — the semantics-preservation contract of
// naturalization (Section IV-B). With tiers it also runs the naturalized
// program stepwise and at translation threshold 1, where every trap a block
// reaches is offered to the in-block service, and requires all three runs
// to end in the same cycles, instructions, registers, task region, stack
// high-water mark and kernel metrics.
func assertSameExecution(t testing.TB, prog *image.Program, nativeLimit, kernelLimit uint64, tiers bool) {
	t.Helper()
	native, err := progs.RunNative(prog.Clone(), nativeLimit)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	nat, err := rewriter.Rewrite(prog.Clone(), rewriter.Config{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	m, task, run := runNaturalized(t, nat, kernelLimit, func(*mcu.Machine) {})
	for i := uint8(0); i < 32; i++ {
		if native.Machine.Reg(i) != m.Reg(i) {
			t.Fatalf("r%d: native=%#x sensmart=%#x", i, native.Machine.Reg(i), m.Reg(i))
		}
	}
	pl, _, _ := task.Region()
	for off := uint16(0); off < prog.HeapSize; off++ {
		nv := native.Machine.Peek(prog.HeapBase + off)
		kv := m.Peek(pl + off)
		if nv != kv {
			t.Fatalf("heap+%d: native=%#x sensmart=%#x", off, nv, kv)
		}
	}
	if nu, ku := native.Machine.UARTOutput(), m.UARTOutput(); !bytes.Equal(nu, ku) {
		t.Fatalf("uart: native=%q sensmart=%q", nu, ku)
	}
	if !tiers {
		return
	}
	for _, tier := range []struct {
		name  string
		setup func(*mcu.Machine)
	}{
		{"stepwise", func(m *mcu.Machine) { m.SetStepwise(true) }},
		{"threshold 1", func(m *mcu.Machine) { m.SetTranslation(1) }},
	} {
		if _, _, got := runNaturalized(t, nat, kernelLimit, tier.setup); !reflect.DeepEqual(got, run) {
			t.Fatalf("%s run differs from the default run:\n%s %+v\ndefault %+v", tier.name, tier.name, got, run)
		}
	}
}

// dnaFromProgram derives a seed-corpus entry from a real program's code
// image, so the fuzzer starts from the instruction-mix statistics of the
// seven kernel benchmarks rather than from all-zero inputs.
func dnaFromProgram(p *image.Program) []byte {
	out := make([]byte, 0, 512)
	for _, w := range p.Words {
		out = append(out, byte(w), byte(w>>8))
		if len(out) >= 512 {
			break
		}
	}
	return out
}

// FuzzDifferential is the fuzz entry point: any byte string becomes a valid
// program via programFromDNA, which must then behave identically native and
// naturalized. Run with:
//
//	go test ./internal/experiment -run Fuzz -fuzz=FuzzDifferential -fuzztime=10s
func FuzzDifferential(f *testing.F) {
	// Seed with the seven kernel benchmarks' code bytes plus a few
	// hand-picked decision strings that exercise each generator arm.
	for _, kb := range progs.KernelBenchmarks() {
		f.Add(dnaFromProgram(kb.Program))
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 128, 64})
	f.Add([]byte{5, 5, 5, 6, 6, 6, 3, 4, 3, 4})
	// One seed per skip and poll case. programFromDNA reads ten register
	// values and an instruction count byte (8 + n%28), then each
	// instruction's case byte and operands; a seed repeats once it runs out.
	regs := [...]byte{0x0F, 0xF0, 0x55, 0xAA, 1, 2, 3, 4, 0x80, 0x7F, 0}
	f.Add(append(regs[:],
		12, 0, 0, 4, 2, 5, // sbrs r16, 4 over add r18, r21
		12, 1, 1, 7, 3, 3, // sbrc r17, 7 over add r19, r19
		12, 2, 2, 5, 6, 0)) // cpse r18, r21 over add r22, r16
	f.Add(append(regs[:],
		13, 0, 0, 0, 4, 5, 2, // sbrs r16, 4 over sts buf+5, r18
		13, 1, 1, 1, 1, 3, 20, // sbrc r17, 1 over lds r19, buf+20
		13, 0, 2, 2, 3, 40, 4)) // cpse r18, r19 over sts buf+40, r20
	// Eleven rounds of: putc r19, putc r20, then sez and a breq-closed poll
	// loop, then putc r19.
	f.Add([]byte{3, 44})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := programFromDNA(&dna{data: data})
		prog, err := asm.Assemble("fuzz", src)
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		assertSameExecution(t, prog, 10_000_000, 50_000_000, true)
	})
}

// TestDifferentialKernelBenchmarks runs the seven real benchmark kernels
// through the same native-vs-SenSmart comparison the fuzzer applies to
// generated programs: identical registers, heap, and UART output.
func TestDifferentialKernelBenchmarks(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		t.Run(kb.Name, func(t *testing.T) {
			if testing.Short() && kb.Name == "lfsr" {
				t.Skip("long benchmark in -short mode")
			}
			assertSameExecution(t, kb.Program, 2_000_000_000, 4_000_000_000, false)
		})
	}
}
