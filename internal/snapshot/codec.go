package snapshot

import (
	"encoding/binary"
	"fmt"

	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/mcu"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// All integers on the wire are little-endian.
var le = binary.LittleEndian

// codec walks the payload one field at a time. Each record has one schema
// method that names its fields once, in wire order, and the same walk runs
// both ways: encoding appends every field to b; decoding (decode set) reads
// every field from b[off:] into a zeroed record. The format is hand-rolled
// rather than gob/encoding-based so the byte stream is fully deterministic
// (canonical: encode(decode(b)) == b), diffable against the golden, and
// rejects malformed input with typed errors instead of panics.
//
// Decoding keeps a sticky error: after the first failure every field reads
// as zero, so a walk runs straight through and Decode checks err once.
type codec struct {
	decode bool
	b      []byte
	off    int
	err    error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// read consumes the next n bytes of the payload. Once the payload is overrun
// or an earlier field failed it returns n zero bytes instead. (The payload
// length is authenticated by the header hash, so running out of bytes here
// means the contents lie about their own sizes — malformed, not truncated.)
func (c *codec) read(n int) []byte {
	if c.err == nil && len(c.b)-c.off < n {
		c.fail("field of %d bytes overruns payload (%d left)", n, len(c.b)-c.off)
	}
	if c.err != nil {
		return make([]byte, n)
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func (c *codec) u8(v *uint8) {
	if c.decode {
		*v = c.read(1)[0]
	} else {
		c.b = append(c.b, *v)
	}
}

func (c *codec) u16(v *uint16) {
	if c.decode {
		*v = le.Uint16(c.read(2))
	} else {
		c.b = le.AppendUint16(c.b, *v)
	}
}

func (c *codec) u32(v *uint32) {
	if c.decode {
		*v = le.Uint32(c.read(4))
	} else {
		c.b = le.AppendUint32(c.b, *v)
	}
}

func (c *codec) u64(v *uint64) {
	if c.decode {
		*v = le.Uint64(c.read(8))
	} else {
		c.b = le.AppendUint64(c.b, *v)
	}
}

// raw walks a fixed-size byte array (a hash, a register file) with no
// length prefix.
func (c *codec) raw(p []byte) {
	if c.decode {
		copy(p, c.read(len(p)))
	} else {
		c.b = append(c.b, p...)
	}
}

// u64x16 walks a per-service ledger.
func (c *codec) u64x16(a *[16]uint64) {
	for i := range a {
		c.u64(&a[i])
	}
}

// bool walks a flag as one byte; decoding refuses anything but 0 and 1.
func (c *codec) bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.decode {
		if b > 1 {
			c.fail("bool byte is %#x, want 0 or 1", b)
		}
		*v = b == 1
	}
}

// int walks an int as a signed 64-bit integer, whatever the word size.
func (c *codec) int(v *int) {
	x := uint64(*v)
	c.u64(&x)
	if c.decode {
		*v = int(int64(x))
	}
}

// int32 walks an int32 as its 32-bit two's complement.
func (c *codec) int32(v *int32) {
	x := uint32(*v)
	c.u32(&x)
	if c.decode {
		*v = int32(x)
	}
}

// enum walks a byte-sized named type (trace.Kind, rewriter.Class).
func enum[T ~uint8](c *codec, v *T) {
	x := uint8(*v)
	c.u8(&x)
	if c.decode {
		*v = T(x)
	}
}

// count walks a length as a u32. Decoding bounds it by the payload left at
// minSize bytes per element before it becomes an int, so a bit-flipped count
// can neither drive a multi-gigabyte allocation nor wrap negative where int
// has 32 bits.
func (c *codec) count(n *int, minSize int) {
	v := uint32(*n)
	c.u32(&v)
	if !c.decode || c.err != nil {
		return
	}
	if uint64(v) > uint64((len(c.b)-c.off)/minSize) {
		c.fail("count %d exceeds remaining payload", v)
		return
	}
	*n = int(v)
}

// list walks a slice's length and returns the slice, whose elements the
// caller walks next. Decoding allocates it only once count has bounded the
// length; an empty list stays nil.
func list[T any](c *codec, s *[]T, minSize int) []T {
	n := len(*s)
	c.count(&n, minSize)
	if c.decode && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

// bytes walks a length-prefixed byte string.
func (c *codec) bytes(v *[]byte) { c.raw(list(c, v, 1)) }

// str walks a length-prefixed string.
func (c *codec) str(v *string) {
	n := len(*v)
	c.count(&n, 1)
	if c.decode {
		*v = string(c.read(n))
	} else {
		c.b = append(c.b, *v...)
	}
}

// optional walks a section's presence flag and reports whether the section
// follows; decoding a present section allocates it.
func optional[T any](c *codec, p **T) bool {
	present := *p != nil
	c.bool(&present)
	if c.decode && present {
		*p = new(T)
	}
	return present
}

// state walks the whole payload: the machine and kernel records, then each
// observer's record behind a presence flag.
func (c *codec) state(st *State) {
	if c.decode {
		st.Machine, st.Kernel = new(mcu.MachineState), new(kernel.KernelState)
	}
	c.machineState(st.Machine)
	c.kernelState(st.Kernel)
	if optional(c, &st.Trace) {
		c.recorderState(st.Trace)
	}
	if optional(c, &st.Telemetry) {
		c.samplerState(st.Telemetry)
	}
	if optional(c, &st.Profile) {
		c.profilerState(st.Profile)
	}
	if optional(c, &st.Energy) {
		c.energyState(st.Energy)
	}
}

// --- mcu ---

// radioFrameSize is a radio frame's wire size: its byte and its cycle.
const radioFrameSize = 1 + 8

func (c *codec) machineState(st *mcu.MachineState) {
	c.bytes(&st.Data)
	c.u32(&st.PC)
	c.u64(&st.Cycle)
	c.u64(&st.Idle)
	c.u64(&st.Insts)
	c.bool(&st.Sleeping)
	c.u8(&st.FaultKind)
	c.u32(&st.FaultPC)
	c.u16(&st.FaultAddr)
	c.str(&st.FaultNote)
	c.u8(&st.Pending)
	c.bool(&st.Stepwise)
	c.u16(&st.GuardLo)
	c.u16(&st.GuardHi)
	c.bool(&st.GuardOn)
	c.u64(&st.SampleEvery)
	c.u64(&st.SampleNext)
	c.u32(&st.CodeEnd)
	// A captured state refers to its image; the wire carries the digest.
	sum := st.ImageDigest()
	c.raw(sum[:])
	if c.decode {
		st.FlashHash = sum
	}

	dv := &st.Dev
	c.u64(&dv.NextEvent)
	c.u64(&dv.T0BaseCycle)
	c.u16(&dv.T0BaseCount)
	c.u32(&dv.T0Prescale)
	c.u64(&dv.ADCBusyUntil)
	c.bool(&dv.ADCPending)
	c.u16(&dv.ADCLFSR)
	c.u64(&dv.UARTBusyUntil)
	c.u8(&dv.UARTPendingB)
	c.bool(&dv.UARTPending)
	c.bytes(&dv.UARTOut)
	c.u64(&dv.RadioBusyUntil)
	c.u8(&dv.RadioPendingB)
	c.bool(&dv.RadioPending)
	for i := range list(c, &dv.RadioOut, radioFrameSize) {
		f := &dv.RadioOut[i]
		c.u8(&f.Byte)
		c.u64(&f.Cycle)
	}
	c.bytes(&dv.RadioIn)
}

// --- kernel ---

func (c *codec) kernelState(st *kernel.KernelState) {
	s := &st.Stats
	c.int(&s.ContextSwitches)
	c.int(&s.Preemptions)
	c.u64(&s.BranchTraps)
	c.u64(&s.SliceChecks)
	c.int(&s.Relocations)
	c.u64(&s.RelocatedBytes)
	c.int(&s.Terminations)
	c.u64x16(&s.ServiceCalls)
	c.u64x16(&s.ServiceCycles)
	c.u64x16(&s.ServiceOverhead)
	c.u64(&s.BootCycles)
	c.u64(&s.SwitchCycles)
	c.u64(&s.RelocCycles)

	c.int(&st.Cur)
	c.bool(&st.Booted)
	c.u8(&st.Service)
	c.u32(&st.FlashTop)
	c.u16(&st.AppBase)
	c.u16(&st.AppEnd)

	for i := range list(c, &st.Tasks, 64) {
		t := &st.Tasks[i]
		c.int(&t.ID)
		c.str(&t.Name)
		c.u32(&t.Base)
		c.u16(&t.PL)
		c.u16(&t.PH)
		c.u16(&t.PU)
		c.u8(&t.State)
		c.u64(&t.WakeAt)
		c.raw(t.Regs[:])
		c.u8(&t.SREG)
		c.u16(&t.SPPhys)
		c.u32(&t.PC)
		c.u16(&t.SPShad)
		c.u32(&t.BrLeft)
		c.u64(&t.SliceAt)
		c.u64(&t.RunAt)
		c.u64(&t.RunCyc)
		c.u8(&t.T3Latch)
		c.int(&t.Relocations)
		c.u16(&t.MaxStackUsed)
		c.str(&t.ExitReason)
		c.int(&t.Switches)
		c.u64x16(&t.ServiceCalls)
		c.u64(&t.KernelCycles)
	}
	for i := range list(c, &st.Regions, 8) {
		c.int(&st.Regions[i])
	}
	for i := range list(c, &st.FaultLog, 8) {
		f := &st.FaultLog[i]
		c.u64(&f.Cycle)
		c.int(&f.Task)
		c.str(&f.Name)
		enum(c, &f.Service)
		c.str(&f.Kind)
		c.u32(&f.PC)
		c.str(&f.Sym)
		c.str(&f.Reason)
	}
}

// --- trace ---

func (c *codec) recorderState(st *trace.RecorderState) {
	c.int(&st.Limit)
	c.u64(&st.Dropped)
	for i := range list(c, &st.Events, 33) {
		ev := &st.Events[i]
		c.u64(&ev.Cycle)
		enum(c, &ev.Kind)
		c.int32(&ev.Task)
		c.u64(&ev.Arg)
		c.u64(&ev.Arg2)
		c.u32(&ev.PC)
		c.str(&ev.Detail)
	}
}

// --- telemetry ---

func (c *codec) samplerState(st *telemetry.SamplerState) {
	c.u64(&st.Every)
	c.int(&st.Ring)
	c.u64(&st.Total)
	for i := range list(c, &st.Samples, 64) {
		c.sample(&st.Samples[i])
	}
	for i := range list(c, &st.TaskIDs, 4) {
		c.int32(&st.TaskIDs[i])
	}
	for i := range list(c, &st.TaskNames, 4) {
		c.str(&st.TaskNames[i])
	}
}

func (c *codec) sample(s *telemetry.Sample) {
	c.u64(&s.At)
	c.u64(&s.Cycle)
	c.u64(&s.IdleCycles)
	c.u64(&s.ServiceOverheadCycles)
	c.u64(&s.SwitchCycles)
	c.u64(&s.RelocCycles)
	c.u64(&s.BootCycles)
	c.int(&s.ContextSwitches)
	c.int(&s.Preemptions)
	c.u64(&s.SliceChecks)
	c.u64(&s.BranchTraps)
	c.int(&s.Relocations)
	c.u64(&s.RelocatedBytes)
	c.int(&s.Terminations)
	c.u32(&s.HeapBytes)
	c.u32(&s.StackBytes)
	c.u32(&s.FreeBytes)
	c.int32(&s.Running)
	for j := range list(c, &s.Tasks, 50) {
		t := &s.Tasks[j]
		c.int32(&t.ID)
		c.str(&t.Name)
		c.str(&t.State)
		c.u64(&t.RunCycles)
		c.u64(&t.KernelCycles)
		c.u16(&t.StackUsed)
		c.u16(&t.StackPeak)
		c.u16(&t.StackAlloc)
		c.u16(&t.HeapBytes)
		c.u64(&t.Traps)
		c.int(&t.Relocations)
		c.int(&t.Switches)
		c.u64(&t.EnergyPJ)
	}
	// Schema v2: cumulative energy gauges (all zero on unmetered runs).
	c.u64(&s.EnergyPJ)
	c.u64(&s.EnergyCPUActivePJ)
	c.u64(&s.EnergyCPUSleepPJ)
	c.u64(&s.EnergyRadioPJ)
	c.u64(&s.EnergyUARTPJ)
	c.u64(&s.EnergyADCPJ)
	c.u64(&s.EnergyTimerPJ)
}

// --- energy ---

func (c *codec) energyState(st *energy.MeterState) {
	c.u64(&st.SleepCycles)
	c.u64(&st.RadioBytes)
	c.u64(&st.RadioCycles)
	c.u64(&st.UARTBytes)
	c.u64(&st.UARTCycles)
	c.u64(&st.ADCConvs)
	c.u64(&st.ADCCycles)
	c.u64(&st.TimerCycles)
	c.bool(&st.TimerOn)
	c.u64(&st.TimerSince)
}

// --- profile ---

func (c *codec) profilerState(st *profile.ProfilerState) {
	c.u64(&st.ClockHz)
	c.u64(&st.StackInterval)
	c.int(&st.StackRing)
	c.int(&st.WatchLimit)
	c.u64(&st.Now)
	c.u64(&st.Idle)
	c.u64(&st.Switches)
	c.u64(&st.Compaction)
	c.u64(&st.Boot)
	c.int32(&st.Cur)
	for i := range list(c, &st.Tasks, 64) {
		t := &st.Tasks[i]
		c.int32(&t.ID)
		c.str(&t.Name)
		c.u16(&t.PL)
		c.u16(&t.PH)
		c.u16(&t.PU)
		for j := range list(c, &t.PCs, 12) {
			p := &t.PCs[j]
			c.u32(&p.PC)
			c.u64(&p.Cycles)
		}
		c.u64x16(&t.Svc)
		c.u64(&t.Reloc)
		c.u64(&t.Intr)
		c.u64(&t.NextSample)
		for j := range list(c, &t.Ring, 14) {
			s := &t.Ring[j]
			c.u64(&s.Cycle)
			c.u16(&s.SP)
			c.u32(&s.Used)
		}
		c.int(&t.RingPos)
		c.bool(&t.Wrapped)
		c.u64(&t.Samples)
		c.u32(&t.Peak)
		for j := range list(c, &t.Relocs, 28) {
			r := &t.Relocs[j]
			c.u64(&r.Cycle)
			c.u32(&r.PC)
			c.u64(&r.Granted)
			c.u64(&r.Cycles)
		}
	}
	for i := range list(c, &st.Watches, 6) {
		w := &st.Watches[i]
		c.u16(&w.Addr)
		c.u16(&w.Len)
		c.bool(&w.Read)
		c.bool(&w.Write)
	}
	for i := range list(c, &st.Hits, 19) {
		h := &st.Hits[i]
		c.u64(&h.Cycle)
		c.int32(&h.Task)
		c.u32(&h.PC)
		c.u16(&h.Addr)
		c.bool(&h.Write)
	}
	c.u64(&st.DroppedHits)
}
