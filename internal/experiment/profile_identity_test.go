package experiment

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/profile"
	"repro/internal/progs"
	"repro/internal/rewriter"
)

// runProfiled boots one profiled kernel over the benchmark and runs it to
// completion.
func runProfiled(t *testing.T, kb progs.KernelBenchmark, opts profile.Options) (*profile.Profiler, *core.System) {
	t.Helper()
	prof := profile.New(opts)
	sys, err := runSenSmart(kernel.Config{Profile: prof}, 4_000_000_000, kb.Program.Clone())
	if err != nil {
		t.Fatalf("%s: %v", kb.Name, err)
	}
	return prof, sys
}

// TestProfilerMatchesKernelLedger is the identity check of the profiler: for
// each of the seven kernel benchmarks, every cycle the machine executed must
// be attributed exactly once, and the per-task / per-class attribution must
// equal the kernel's own always-on ledgers.
func TestProfilerMatchesKernelLedger(t *testing.T) {
	for _, kb := range progs.KernelBenchmarks() {
		kb := kb
		t.Run(kb.Name, func(t *testing.T) {
			prof, sys := runProfiled(t, kb, profile.Options{})
			if got, want := prof.TotalCycles(), sys.Machine().Cycles(); got != want {
				t.Errorf("TotalCycles = %d, machine ran %d", got, want)
			}
			m := sys.Metrics()
			for _, tm := range m.Tasks {
				if got, want := prof.TaskTotal(int32(tm.ID)), tm.RunCycles; got != want {
					t.Errorf("task %s: profiler total %d, ledger RunCycles %d", tm.Name, got, want)
				}
			}
			var svcSum uint64
			for class := rewriter.Class(1); class < 16; class++ {
				got := prof.ServiceOverhead(class)
				want := sys.Kernel().Stats.ServiceOverhead[class]
				if got != want {
					t.Errorf("class %v: profiler overhead %d, ledger %d", class, got, want)
				}
				svcSum += got
			}
			if svcSum != m.ServiceOverheadCycles {
				t.Errorf("kernel.<service> frames sum to %d, ServiceOverhead ledger %d",
					svcSum, m.ServiceOverheadCycles)
			}
			if prof.BootCycles() != m.BootCycles {
				t.Errorf("boot = %d, want %d", prof.BootCycles(), m.BootCycles)
			}
			if prof.SwitchCycles() != m.SwitchCycles {
				t.Errorf("switch = %d, want %d", prof.SwitchCycles(), m.SwitchCycles)
			}
			if got, want := prof.RelocCycles()+prof.CompactionCycles(), m.RelocCycles; got != want {
				t.Errorf("reloc+compact = %d, want %d", got, want)
			}
			if prof.IdleCycles() != m.IdleCycles {
				t.Errorf("idle = %d, want %d", prof.IdleCycles(), m.IdleCycles)
			}
		})
	}
}

// TestProfilerHotSymbols pins the expected hot application symbol for the
// treesearch and alloc workloads and checks the emitted pprof parses (a
// protobuf decode of the gzip stream recovers the same symbol names).
func TestProfilerHotSymbols(t *testing.T) {
	allocProg, err := progs.AllocDemo(24)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		prog progs.KernelBenchmark
		want string // expected hot application symbol (frame suffix)
	}{
		{"treesearch",
			progs.KernelBenchmark{Name: "treesearch",
				Program: progs.MustTreeSearch(progs.TreeSearchParams{Searches: 400})},
			".search"},
		// The allocation demo's hot loop is the list builder, which calls
		// into the allocator; .alloc itself must also appear (checked below).
		{"alloc", progs.KernelBenchmark{Name: "alloc", Program: allocProg}, ".build"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prof, _ := runProfiled(t, c.prog, profile.Options{})
			var hot string
			for _, e := range prof.Top(0) {
				if strings.HasPrefix(e.Frame, "kernel.") || e.Frame == "idle" ||
					e.Frame == "machine" || strings.HasPrefix(e.Frame, "machine.") {
					continue
				}
				hot = e.Frame
				break
			}
			if !strings.HasSuffix(hot, c.want) {
				t.Errorf("hot symbol = %q, want one ending in %q\ntop: %+v", hot, c.want, prof.Top(8))
			}
			if c.name == "alloc" {
				seen := false
				for _, e := range prof.Top(0) {
					if strings.HasSuffix(e.Frame, ".alloc") && e.Cycles > 0 {
						seen = true
					}
				}
				if !seen {
					t.Errorf("allocator symbol .alloc missing from profile\ntop: %+v", prof.Top(8))
				}
			}

			var buf bytes.Buffer
			if err := prof.WritePprof(&buf); err != nil {
				t.Fatal(err)
			}
			names, err := pprofFunctionNames(buf.Bytes())
			if err != nil {
				t.Fatalf("emitted pprof does not parse: %v", err)
			}
			found := false
			for _, n := range names {
				if n == hot {
					found = true
				}
			}
			if !found {
				t.Errorf("pprof function table missing hot symbol %q (has %v)", hot, names)
			}
		})
	}
}

// pprofFunctionNames decodes the gzipped profile.proto stream far enough to
// return every function name — an in-test stand-in for `go tool pprof -top`.
func pprofFunctionNames(gzdata []byte) ([]string, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzdata))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strtab    []string
		nameIdxes []uint64
	)
	readVarint := func(b []byte) (uint64, int) {
		var v uint64
		for i := 0; i < len(b); i++ {
			v |= uint64(b[i]&0x7f) << (7 * i)
			if b[i] < 0x80 {
				return v, i + 1
			}
		}
		return 0, 0
	}
	for i := 0; i < len(data); {
		tag, n := readVarint(data[i:])
		if n == 0 {
			break
		}
		i += n
		field, wire := tag>>3, tag&7
		switch wire {
		case 0:
			_, n := readVarint(data[i:])
			i += n
		case 2:
			l, n := readVarint(data[i:])
			i += n
			body := data[i : i+int(l)]
			i += int(l)
			switch field {
			case 6: // string_table
				strtab = append(strtab, string(body))
			case 5: // function
				for j := 0; j < len(body); {
					ftag, fn := readVarint(body[j:])
					if fn == 0 {
						break
					}
					j += fn
					if ftag&7 == 2 {
						fl, fn2 := readVarint(body[j:])
						j += fn2 + int(fl)
						continue
					}
					v, fn2 := readVarint(body[j:])
					j += fn2
					if ftag>>3 == 2 { // Function.name
						nameIdxes = append(nameIdxes, v)
					}
				}
			}
		default:
			return nil, io.ErrUnexpectedEOF
		}
	}
	var names []string
	for _, idx := range nameIdxes {
		if int(idx) < len(strtab) {
			names = append(names, strtab[idx])
		}
	}
	return names, nil
}
