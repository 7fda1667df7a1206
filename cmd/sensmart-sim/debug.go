package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/faultinject"
	"repro/internal/image"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/timetravel"
	"repro/internal/trace"
)

// The -debug mode: record one run under a time-travel checkpoint ring, then
// serve a scriptable batch of seeks (-at CYCLE, repeatable) and print the
// requested -dump sections at each landed cycle. Non-interactive by design:
// the whole session is reproducible from the command line.

// dumpSpec is one section of a -dump request.
type dumpSpec struct {
	kind string // "regs", "stack", "tasks", "energy", "events", or "mem"
	addr uint16 // mem: start of the physical window
	n    int    // mem: window length; events: tail length
}

// parseDump parses the comma-separated -dump section list.
func parseDump(s string) ([]dumpSpec, error) {
	var specs []dumpSpec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		switch {
		case tok == "regs" || tok == "stack" || tok == "tasks" || tok == "energy":
			specs = append(specs, dumpSpec{kind: tok})
		case tok == "events":
			specs = append(specs, dumpSpec{kind: "events", n: 16})
		case strings.HasPrefix(tok, "mem:"):
			addrs, lens, ok := strings.Cut(strings.TrimPrefix(tok, "mem:"), "+")
			if !ok {
				return nil, fmt.Errorf("bad -dump section %q (want mem:ADDR+LEN)", tok)
			}
			addr, err := strconv.ParseUint(addrs, 0, 16)
			if err == nil && addr >= mcu.DataSize {
				err = fmt.Errorf("past the %#x-byte data space", mcu.DataSize)
			}
			if err != nil {
				return nil, fmt.Errorf("bad -dump address in %q: %v", tok, err)
			}
			// The window must end inside the data space: Inspector.Mem stops
			// at its end, so a longer window would print fewer bytes than
			// asked for.
			room := mcu.DataSize - addr
			n, err := strconv.ParseUint(lens, 0, 16)
			if err != nil || n == 0 || n > room {
				return nil, fmt.Errorf("bad -dump length in %q (want 1..%d)", tok, room)
			}
			specs = append(specs, dumpSpec{kind: "mem", addr: uint16(addr), n: int(n)})
		default:
			return nil, fmt.Errorf("unknown -dump section %q (want regs, stack, tasks, energy, events, or mem:ADDR+LEN)", tok)
		}
	}
	if len(specs) == 0 {
		return nil, errors.New("-dump needs at least one section")
	}
	return specs, nil
}

// runDebug records the deployment under a checkpoint ring, then executes the
// seek batch. The factory always attaches a trace recorder and an energy
// meter so every landed cycle can answer for its history and its joules.
func runDebug(programs []*image.Program, copies int, limit uint64,
	injections []faultinject.Injection, ring int, ringEvery uint64,
	ats []uint64, dumps []dumpSpec) error {
	factory := func() (*core.System, error) {
		sys := core.NewSystem(
			core.WithKernelConfig(kernel.Config{}),
			core.WithTrace(trace.New()),
			core.WithEnergy(new(energy.Meter)),
		)
		for _, p := range programs {
			for c := 0; c < copies; c++ {
				if _, err := sys.Deploy(p); err != nil {
					return nil, err
				}
			}
		}
		return sys, nil
	}
	cfg := timetravel.Config{Checkpoints: ring, Every: ringEvery}
	if len(injections) > 0 {
		cfg.Rearm = func(sys *core.System) {
			faultinject.ArmAll(sys.Machine(), injections)
		}
	}
	d, err := timetravel.New(factory, cfg)
	if err != nil {
		return err
	}
	if err := d.Record(limit); err != nil {
		return fmt.Errorf("debug: record: %w", err)
	}
	fmt.Printf("debug: recorded %d cycles; ring holds %d checkpoint(s), %d evicted, %d skipped\n",
		d.End(), len(d.Checkpoints()), d.Evicted(), d.Skipped())
	for _, at := range ats {
		insp, err := d.Seek(at)
		if err != nil {
			return fmt.Errorf("debug: seek %d: %w", at, err)
		}
		printSeek(insp, dumps)
	}
	return nil
}

// printSeek renders one landed seek: a header locating the cycle, then the
// requested dump sections.
func printSeek(insp *timetravel.Inspector, dumps []dumpSpec) {
	base, fromRing := insp.Base()
	via := "boot"
	if fromRing {
		via = "checkpoint"
	}
	fmt.Printf("\n== cycle %d (requested %d, replayed from %s at %d)\n",
		insp.Cycle(), insp.Requested(), via, base)
	fmt.Printf("   pc %#05x %s", insp.PC(), insp.PCSymbol())
	if t := insp.Current(); t != nil {
		fmt.Printf("   task %s", t.Name)
	}
	fmt.Println()
	for _, spec := range dumps {
		switch spec.kind {
		case "regs":
			printRegs(insp)
		case "stack":
			printStack(insp)
		case "tasks":
			printTasks(insp)
		case "energy":
			if _, ok := insp.Energy(); ok {
				printEnergyBudget(insp.System().Energy(), insp.Cycle())
			}
		case "events":
			printEvents(insp, spec.n)
		case "mem":
			printMem(insp, spec.addr, spec.n)
		}
	}
}

func printRegs(insp *timetravel.Inspector) {
	regs := insp.Registers()
	for row := 0; row < 4; row++ {
		fmt.Printf("   ")
		for col := 0; col < 8; col++ {
			i := row*8 + col
			fmt.Printf("r%-2d=%02x ", i, regs[i])
		}
		fmt.Println()
	}
	sp := insp.SP()
	line := fmt.Sprintf("   SREG=%02x SP=%#04x", insp.SREG(), sp)
	if ai := insp.DecodeAddr(sp); ai.Task != nil {
		line += fmt.Sprintf(" (logical %#04x, %s of %s)", ai.Logical, ai.Kind, ai.Task.Name)
	}
	fmt.Println(line)
}

func printStack(insp *timetravel.Inspector) {
	frames := insp.Stack(16)
	if len(frames) == 0 {
		fmt.Println("   stack: no saved return addresses on the live stack")
		return
	}
	sym := insp.System().Kernel().Symbolizer()
	fmt.Println("   stack:")
	for _, fr := range frames {
		fmt.Printf("     %#04x (logical %#04x): -> %#05x %s\n",
			fr.Phys, fr.Logical, fr.Target, sym.Name(fr.Target))
	}
}

func printTasks(insp *timetravel.Inspector) {
	fmt.Println("   tasks:")
	for _, t := range insp.System().Kernel().Tasks {
		pl, ph, pu := t.Region()
		status := t.State().String()
		if t.ExitReason != "" {
			status += ": " + t.ExitReason
		}
		fmt.Printf("     %-20s %-28s region [%#04x,%#04x) heap %dB stack %dB peak %dB logical-sp %#04x\n",
			t.Name, status, pl, pu, ph-pl, t.StackAlloc(), t.MaxStackUsed, t.LogicalSP())
	}
}

func printEvents(insp *timetravel.Inspector, n int) {
	evs := insp.Events(n)
	if len(evs) == 0 {
		fmt.Println("   events: none recorded")
		return
	}
	names := trace.TaskNames(insp.Events(0))
	name := func(id int32) string {
		if nm, ok := names[id]; ok {
			return nm
		}
		return fmt.Sprintf("task%d", id)
	}
	fmt.Printf("   last %d events:\n", len(evs))
	for _, e := range evs {
		fmt.Printf("     %s\n", e.Format(name))
	}
}

func printMem(insp *timetravel.Inspector, addr uint16, n int) {
	data := insp.Mem(addr, n)
	info := insp.DecodeAddr(addr)
	where := "unmapped"
	if info.Task != nil {
		where = fmt.Sprintf("%s of %s, logical %#04x", info.Kind, info.Task.Name, info.Logical)
	}
	fmt.Printf("   mem %#04x+%d (%s):\n", addr, n, where)
	for off := 0; off < len(data); off += 16 {
		end := off + 16
		if end > len(data) {
			end = len(data)
		}
		row := data[off:end]
		hexs := make([]string, len(row))
		ascii := make([]byte, len(row))
		for i, b := range row {
			hexs[i] = fmt.Sprintf("%02x", b)
			if b >= 0x20 && b < 0x7F {
				ascii[i] = b
			} else {
				ascii[i] = '.'
			}
		}
		fmt.Printf("     %#04x: %-47s |%s|\n", addr+uint16(off), strings.Join(hexs, " "), ascii)
	}
}
