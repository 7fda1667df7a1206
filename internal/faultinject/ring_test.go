package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
)

// reportJSON runs one campaign call at the given golden checkpoint spacing
// and returns its report and the report's JSON.
func reportJSON(t *testing.T, i int, spec Spec, every uint64) (Report, []byte) {
	t.Helper()
	rep, err := runBenchmark(Benchmarks()[i], spec, i, every)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return rep, blob
}

// TestGoldenRingMatchesBoot: trials and forensic replays forked from the
// golden run's checkpoints report exactly what runs booted from cycle 0
// report. For every suite member at goldenSpec and at one more seed, the
// report JSON from the default ring must equal, byte for byte, the report
// with no ring (every trial and replay boots) and the report with a 2^8
// ring. The 2^8 ring is dense enough that some traced replays restore too
// close to their divergence cycle to fill the event ring and must fall
// back to a boot; the ledger proves that path ran, and that with the
// default ring no restored trial re-executed more than two spacings before
// its planned fire cycle.
func TestGoldenRingMatchesBoot(t *testing.T) {
	const dense = 1 << 8
	var tracedBoots, restored atomic.Uint64
	t.Run("suite", func(t *testing.T) {
		for _, spec := range []Spec{goldenSpec, {Seed: 2, Trials: goldenSpec.Trials}} {
			for i, b := range Benchmarks() {
				t.Run(fmt.Sprintf("%s/seed%d", b.Name, spec.Seed), func(t *testing.T) {
					t.Parallel()
					rep, ring := reportJSON(t, i, spec, goldenEvery)
					bootRep, boot := reportJSON(t, i, spec, 0)
					denseRep, denser := reportJSON(t, i, spec, dense)
					if !bytes.Equal(ring, boot) {
						t.Errorf("report from the golden ring differs from the booted one:\nring %s\nboot %s", ring, boot)
					}
					if !bytes.Equal(denser, boot) {
						t.Errorf("report from a 2^8 ring differs from the booted one:\nring %s\nboot %s", denser, boot)
					}
					if l := bootRep.Ledger; l.Restored != 0 || l.TrialLead != 0 {
						t.Errorf("run without a ring restored %d cycles", l.Restored)
					}
					// Only the default spacing bounds the lead: a single
					// boundary (a sleep, a relocation) can outlast two 2^8
					// spacings, and no checkpoint falls inside it.
					if lead := rep.Ledger.TrialLead; lead > 2*goldenEvery {
						t.Errorf("a restored trial re-executed %d cycles before its plan cycle, over two spacings", lead)
					}
					if rep.GoldenCycles > 2*goldenEvery && rep.Ledger.Restored == 0 {
						t.Errorf("%d-cycle golden run: no trial or replay restored a checkpoint", rep.GoldenCycles)
					}
					restored.Add(rep.Ledger.Restored)
					tracedBoots.Add(uint64(denseRep.Ledger.TracedBoots))
				})
			}
		}
	})
	if restored.Load() == 0 {
		t.Error("the default ring restored nothing")
	}
	if tracedBoots.Load() == 0 {
		t.Error("the 2^8 ring never took the traced-replay boot fallback; the test no longer covers it")
	}
	t.Logf("default ring restored %d cycles; 2^8 ring: %d traced-replay boots", restored.Load(), tracedBoots.Load())
}

// FuzzGoldenRingMatchesBoot: for any suite member, seed and 1–4 trials, the
// report from the default golden ring equals, byte for byte, the report
// with every trial and replay booted from cycle 0. Seeded with the first
// four trials of goldenSpec on every member.
func FuzzGoldenRingMatchesBoot(f *testing.F) {
	for i := range Benchmarks() {
		f.Add(uint8(i), goldenSpec.Seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, member uint8, seed uint64, trials uint8) {
		i := int(member) % len(Benchmarks())
		spec := Spec{Seed: seed, Trials: 1 + int(trials%4)}
		_, ring := reportJSON(t, i, spec, goldenEvery)
		_, boot := reportJSON(t, i, spec, 0)
		if !bytes.Equal(ring, boot) {
			t.Errorf("member %d %+v: report from the golden ring differs from the booted one:\nring %s\nboot %s",
				i, spec, ring, boot)
		}
	})
}
