package experiment

import (
	"fmt"
	"strings"

	"repro/internal/avr/asm"
	"repro/internal/kernel"
	"repro/internal/progs"
)

// probe measures the per-repetition cycle cost of an instruction sequence
// under SenSmart and natively; the difference is the kernel overhead that
// Table II reports. The repetitions are separated so the grouped-access
// optimization cannot fuse them.
type probe struct {
	name     string
	prologue string
	rep      string // one repetition (may be several lines)
	paper    string // the value Table II reports ("~" marks estimates)
}

const probeReps = 64

func (p probe) build(name string, reps int) string {
	var b strings.Builder
	b.WriteString(".data\nbuf: .space 8\n.text\nmain:\n")
	b.WriteString(p.prologue)
	b.WriteString("\n")
	for i := 0; i < reps; i++ {
		b.WriteString(strings.ReplaceAll(p.rep, "@", fmt.Sprintf("%d", i)))
		b.WriteString("\n")
	}
	b.WriteString("    break\n")
	return b.String()
}

// measure returns the overhead cycles per repetition (SenSmart minus native).
func (p probe) measure() (int64, error) {
	var perSystem [2]int64 // 0: sensmart, 1: native
	cost := func(native bool, reps int) (uint64, error) {
		prog, err := asm.Assemble(fmt.Sprintf("probe-%s-%d", p.name, reps), p.build(p.name, reps))
		if err != nil {
			return 0, err
		}
		if native {
			res, err := progs.RunNative(prog, 50_000_000)
			return res.Cycles, err
		}
		sys, err := runSenSmart(kernel.Config{}, 50_000_000, prog)
		if err != nil {
			return 0, err
		}
		return sys.Machine().Cycles(), nil
	}
	for i, native := range []bool{false, true} {
		base, err := cost(native, 0)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.name, err)
		}
		full, err := cost(native, probeReps)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", p.name, err)
		}
		perSystem[i] = (int64(full) - int64(base)) / probeReps
	}
	return perSystem[0] - perSystem[1], nil
}

// table2Probes lists the measurable Table II rows.
var table2Probes = []probe{
	{
		name:  "mem direct I/O area",
		rep:   "    lds r24, 0x0052      ; TCNT0 through data space",
		paper: "2",
	},
	{
		name:  "mem direct others (heap)",
		rep:   "    lds r24, buf",
		paper: "28",
	},
	{
		name: "mem indirect I/O area",
		prologue: `    ldi r26, 0x52
    ldi r27, 0x00`,
		rep:   "    ld r24, X\n    mov r0, r0",
		paper: "54",
	},
	{
		name: "mem indirect heap",
		prologue: `    ldi r26, lo8(buf)
    ldi r27, hi8(buf)`,
		rep:   "    ld r24, X\n    mov r0, r0",
		paper: "~80 (garbled in source)",
	},
	{
		name: "mem indirect stack frame",
		prologue: `    ldi r28, 0xE0
    ldi r29, 0x10          ; Y -> logical stack area`,
		rep:   "    ldd r24, Y+1\n    mov r0, r0",
		paper: "~82 (garbled in source)",
	},
	{
		name:  "stack operation (push, native)",
		rep:   "    push r24\n    pop r24",
		paper: "~ (garbled in source)",
	},
	{
		name: "program memory (ijmp)",
		rep: `    ldi r30, lo8(tgt@)
    ldi r31, hi8(tgt@)
    ijmp
tgt@:`,
		paper: "376",
	},
	{
		name:  "get stack pointer",
		rep:   "    in r24, SPL",
		paper: "45",
	},
	{
		name:     "set stack pointer",
		prologue: "    in r28, SPL",
		rep:      "    out SPL, r28",
		paper:    "94",
	},
}

// Table2 measures the overhead of the kernel's key operations and compares
// them with the paper's Table II.
func Table2() (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Overhead of key operations in cycles (Table II)",
		Header: []string{"Operation", "Measured", "Paper"},
	}

	// System initialization: cycles charged by Boot on an empty workload.
	{
		prog, err := asm.Assemble("probe-init", "main:\n    break\n")
		if err != nil {
			return nil, err
		}
		sys, err := runSenSmart(kernel.Config{}, 1_000_000, prog)
		if err != nil {
			return nil, err
		}
		// Subtract the probe body: ktrap fetch (1) + exit service.
		t.Rows = append(t.Rows, []string{"system initialization",
			utoa(sys.Machine().Cycles() - 1), "5738"})
	}

	for _, p := range table2Probes {
		got, err := p.measure()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{p.name, fmt.Sprintf("%d", got), p.paper})
	}

	// Stack relocation: trigger real relocations with a recursive task and
	// average the charged cost.
	{
		prog := asm.MustAssemble("probe-reloc", relocProbeSrc)
		sys, err := runSenSmart(kernel.Config{InitialStack: 64}, 200_000_000, prog)
		if err != nil {
			return nil, err
		}
		st := sys.Kernel().Stats
		if st.Relocations == 0 {
			return nil, fmt.Errorf("experiment: relocation probe did not relocate")
		}
		avg := (uint64(st.Relocations)*kernel.CostStackReloc +
			st.RelocatedBytes*kernel.CostRelocPerByte) / uint64(st.Relocations)
		t.Rows = append(t.Rows, []string{"stack relocation (avg, measured workload)",
			utoa(avg), "2326 + copy"})
	}

	// Context switch rows are charged as Table II constants; report them.
	t.Rows = append(t.Rows,
		[]string{"context saving (configured)", itoa(kernel.CostCtxSave), "932"},
		[]string{"context restoring (configured)", itoa(kernel.CostCtxRestore), "976"},
		[]string{"full switching (configured)", itoa(kernel.CostFullSwitch), "2298"},
	)
	t.Notes = append(t.Notes,
		"measured = (SenSmart cycles - native cycles) per operation over 64 repetitions",
		"rows marked 'configured' are the Table II constants the kernel charges per event",
		"'~' paper entries were unreadable in the available copy; see EXPERIMENTS.md")
	return t, nil
}

// relocProbeSrc recurses 120 levels deep (3 stack bytes per level), forcing
// the kernel to relocate its stack repeatedly from the 64-byte initial size.
const relocProbeSrc = `
main:
    ldi r24, 120
    rcall eat
    break
eat:
    push r24
    dec r24
    brne eat
drain:
    pop r24
    cpi r24, 120
    brne drain
    ret
`
