// Package faultinject is the adversarial fault-injection campaign engine:
// it perturbs a running SenSmart system with seeded physical faults —
// SRAM and register bit-flips, stack smashes, return-address corruption,
// and hostile radio payloads — and classifies what the kernel made of each
// one by differential replay against an uninjected golden run.
//
// The taxonomy (DESIGN.md "Fault-injection verdicts") is:
//
//	contained-fault      the kernel terminated the offending task
//	contained-recovered  the run completed with outputs identical to golden
//	silent-corruption    the run completed but outputs differ from golden
//	cross-task-breach    a witness task's memory was corrupted or it died
//	kernel-compromise    the kernel itself errored or wedged
//
// Everything is deterministic: sites are drawn from a splitmix64 stream
// keyed by (seed, benchmark, trial), and the simulator is cycle-exact, so a
// campaign report is byte-identical at any worker count.
package faultinject

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mcu"
)

// Kind selects the physical fault model of one injection.
type Kind uint8

const (
	// KindSRAMFlip flips one bit of one data-memory byte.
	KindSRAMFlip Kind = iota + 1
	// KindSRAMBurst flips the same bit in Len consecutive data-memory
	// bytes — the multi-cell upset model.
	KindSRAMBurst
	// KindRegFlip flips one bit of one CPU register.
	KindRegFlip
	// KindStackSmash overwrites Len bytes just above the live SP with
	// Value — a buffer-overrun footprint planted directly.
	KindStackSmash
	// KindRetAddr rewrites the return address at the live SP to Addr —
	// the classic control-flow hijack.
	KindRetAddr
	// KindRadio delivers Payload through the receive path — gadget-style
	// hostile input rather than a physical upset.
	KindRadio
)

var kindNames = map[Kind]string{
	KindSRAMFlip:   "sram",
	KindSRAMBurst:  "burst",
	KindRegFlip:    "reg",
	KindStackSmash: "smash",
	KindRetAddr:    "retaddr",
	KindRadio:      "radio",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Injection is one fully-resolved fault: what to mutate and when. The
// campaign resolves region-relative sites into absolute ones at fire time
// (regions move under relocation); the -inject flag of sensmart-sim builds
// absolute injections directly.
type Injection struct {
	Kind Kind
	// At is the cycle the injection fires at (first Step at or past it).
	At uint64
	// Addr is the data-memory target (sram kinds) or the flash word
	// address a hijacked return lands at (retaddr).
	Addr uint16
	// Bit is the bit index for the flip kinds.
	Bit uint8
	// Len is the burst width or smash depth in bytes.
	Len uint8
	// Value is the smash fill byte.
	Value byte
	// Reg is the register index for KindRegFlip.
	Reg uint8
	// Payload is the radio frame for KindRadio.
	Payload []byte
}

// Apply performs the mutation on the machine immediately. The stack kinds
// read the live SP, so Apply is meaningful only while the intended victim
// holds the CPU — the campaign gates on that before calling.
func (in Injection) Apply(m *mcu.Machine) {
	switch in.Kind {
	case KindSRAMFlip:
		m.Poke(in.Addr, m.Peek(in.Addr)^(1<<(in.Bit&7)))
	case KindSRAMBurst:
		for i := uint8(0); i < in.Len; i++ {
			a := in.Addr + uint16(i)
			m.Poke(a, m.Peek(a)^(1<<(in.Bit&7)))
		}
	case KindRegFlip:
		r := in.Reg & 31
		m.SetReg(r, m.Reg(r)^(1<<(in.Bit&7)))
	case KindStackSmash:
		sp := m.SP()
		for i := uint8(0); i < in.Len; i++ {
			m.Poke(sp+1+uint16(i), in.Value)
		}
	case KindRetAddr:
		// pushWord leaves the low byte at the higher address: the word at
		// SP+1 (hi) / SP+2 (lo) is what the next RET pops.
		sp := m.SP()
		m.Poke(sp+1, byte(in.Addr>>8))
		m.Poke(sp+2, byte(in.Addr))
	case KindRadio:
		m.InjectRadio(in.Payload)
	}
}

// Arm schedules the injection on the machine's one-shot injector hook.
func (in Injection) Arm(m *mcu.Machine) {
	m.SetInjector(in.At, in.Apply)
}

// ArmAll schedules any number of injections on one machine by chaining
// through the single one-shot injector hook in cycle order (the hook
// disarms before firing, so a firing injection may re-arm the next one).
func ArmAll(m *mcu.Machine, ins []Injection) {
	if len(ins) == 0 {
		return
	}
	sorted := slices.Clone(ins)
	slices.SortStableFunc(sorted, func(a, b Injection) int {
		return cmp.Compare(a.At, b.At)
	})
	var armFrom func(idx int)
	armFrom = func(idx int) {
		if idx >= len(sorted) {
			return
		}
		m.SetInjector(sorted[idx].At, func(m *mcu.Machine) {
			sorted[idx].Apply(m)
			// Anything else already due fires in the same step.
			j := idx + 1
			for j < len(sorted) && sorted[j].At <= m.Cycles() {
				sorted[j].Apply(m)
				j++
			}
			armFrom(j)
		})
	}
	armFrom(0)
}

// String renders the injection in the -inject flag syntax.
func (in Injection) String() string {
	switch in.Kind {
	case KindSRAMFlip:
		return fmt.Sprintf("sram:%#x:%d@%d", in.Addr, in.Bit, in.At)
	case KindSRAMBurst:
		return fmt.Sprintf("burst:%#x:%d:%d@%d", in.Addr, in.Len, in.Bit, in.At)
	case KindRegFlip:
		return fmt.Sprintf("reg:r%d:%d@%d", in.Reg, in.Bit, in.At)
	case KindStackSmash:
		return fmt.Sprintf("smash:%d:%#x@%d", in.Len, in.Value, in.At)
	case KindRetAddr:
		return fmt.Sprintf("retaddr:%#x@%d", in.Addr, in.At)
	case KindRadio:
		return fmt.Sprintf("radio:%s@%d", hex.EncodeToString(in.Payload), in.At)
	}
	return fmt.Sprintf("kind(%d)@%d", uint8(in.Kind), in.At)
}

// ParseInject parses the -inject flag syntax KIND:PARAMS@CYCLE:
//
//	sram:ADDR[:BIT]@CYCLE       flip BIT (default 0) of data byte ADDR
//	burst:ADDR:LEN[:BIT]@CYCLE  flip BIT in LEN consecutive bytes at ADDR
//	reg:rN[:BIT]@CYCLE          flip BIT of register N (r prefix required, N decimal)
//	smash:LEN:VALUE@CYCLE       write LEN copies of VALUE above the live SP
//	retaddr:TARGET@CYCLE        point the return address at flash word TARGET
//	radio:HEXBYTES@CYCLE        deliver the hex-decoded payload on the radio
//
// Numbers accept 0x-prefixed hex or decimal. sram and burst bytes must lie
// inside the mcu.DataSize-byte data space.
func ParseInject(s string) (Injection, error) {
	fail := func(why string) (Injection, error) {
		return Injection{}, fmt.Errorf("inject %q: %s", s, why)
	}
	spec, cycleStr, ok := strings.Cut(s, "@")
	if !ok {
		return fail("want KIND:PARAMS@CYCLE")
	}
	at, err := strconv.ParseUint(cycleStr, 0, 64)
	if err != nil {
		return fail("bad cycle: " + err.Error())
	}
	parts := strings.Split(spec, ":")
	num := func(i int, bits int) (uint64, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("missing field %d", i)
		}
		return strconv.ParseUint(parts[i], 0, bits)
	}
	// dataAddr parses a data-space address: Peek and Poke wrap modulo the
	// data size, so an address past it would silently hit another byte.
	dataAddr := func(i int) (uint64, error) {
		addr, err := num(i, 16)
		if err == nil && addr >= mcu.DataSize {
			err = fmt.Errorf("%#x is past the %#x-byte data space", addr, mcu.DataSize)
		}
		return addr, err
	}
	in := Injection{At: at}
	switch parts[0] {
	case "sram":
		if len(parts) < 2 || len(parts) > 3 {
			return fail("want sram:ADDR[:BIT]@CYCLE")
		}
		addr, err := dataAddr(1)
		if err != nil {
			return fail("bad address: " + err.Error())
		}
		in.Kind, in.Addr = KindSRAMFlip, uint16(addr)
		if len(parts) == 3 {
			bit, err := num(2, 3)
			if err != nil {
				return fail("bad bit: " + err.Error())
			}
			in.Bit = uint8(bit)
		}
	case "burst":
		if len(parts) < 3 || len(parts) > 4 {
			return fail("want burst:ADDR:LEN[:BIT]@CYCLE")
		}
		addr, err := dataAddr(1)
		if err != nil {
			return fail("bad address: " + err.Error())
		}
		n, err := num(2, 8)
		if err != nil || n == 0 || addr+n > mcu.DataSize {
			return fail("bad length")
		}
		in.Kind, in.Addr, in.Len = KindSRAMBurst, uint16(addr), uint8(n)
		if len(parts) == 4 {
			bit, err := num(3, 3)
			if err != nil {
				return fail("bad bit: " + err.Error())
			}
			in.Bit = uint8(bit)
		}
	case "reg":
		if len(parts) < 2 || len(parts) > 3 {
			return fail("want reg:rN[:BIT]@CYCLE")
		}
		rs, hasPrefix := strings.CutPrefix(parts[1], "r")
		r, err := strconv.ParseUint(rs, 10, 8)
		if !hasPrefix || err != nil || r > 31 {
			return fail("bad register (want r0..r31)")
		}
		in.Kind, in.Reg = KindRegFlip, uint8(r)
		if len(parts) == 3 {
			bit, err := num(2, 3)
			if err != nil {
				return fail("bad bit: " + err.Error())
			}
			in.Bit = uint8(bit)
		}
	case "smash":
		if len(parts) != 3 {
			return fail("want smash:LEN:VALUE@CYCLE")
		}
		n, err := num(1, 8)
		if err != nil || n == 0 {
			return fail("bad length")
		}
		v, err := num(2, 8)
		if err != nil {
			return fail("bad value: " + err.Error())
		}
		in.Kind, in.Len, in.Value = KindStackSmash, uint8(n), byte(v)
	case "retaddr":
		if len(parts) != 2 {
			return fail("want retaddr:TARGET@CYCLE")
		}
		tgt, err := num(1, 16)
		if err != nil {
			return fail("bad target: " + err.Error())
		}
		in.Kind, in.Addr = KindRetAddr, uint16(tgt)
	case "radio":
		if len(parts) != 2 {
			return fail("want radio:HEXBYTES@CYCLE")
		}
		payload, err := hex.DecodeString(parts[1])
		if err != nil || len(payload) == 0 {
			return fail("bad hex payload")
		}
		in.Kind, in.Payload = KindRadio, payload
	default:
		return fail("unknown kind " + parts[0])
	}
	return in, nil
}
