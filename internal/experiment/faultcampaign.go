package experiment

import (
	"fmt"

	"repro/internal/faultinject"
)

// FaultBench is the BENCH_faultcampaign.json payload: per-benchmark verdict
// counts from the adversarial fault-injection campaign. Every field is a
// pure function of (seed, trials), so two files from the same source tree
// are byte-identical on any host at any worker count, which
// TestFaultCampaignPoolDeterminism checks.
type FaultBench struct {
	BenchMeta
	Seed       uint64               `json:"seed"`
	Trials     int                  `json:"trials_per_benchmark"`
	Benchmarks []faultinject.Report `json:"benchmarks"`
}

// FaultCampaign runs the fault-injection campaign over the full benchmark
// suite, one pool point per benchmark. Trials are keyed by (seed,
// benchmark index, trial index), so the pooled sweep draws exactly the
// sites a serial one does and results merge in suite order.
func (r Runner) FaultCampaign(seed uint64, trials int) (*FaultBench, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("experiment: fault campaign needs a positive trial count, got %d", trials)
	}
	benches := faultinject.Benchmarks()
	spec := faultinject.Spec{Seed: seed, Trials: trials}
	fn := runProgress(r, "faultcampaign", len(benches),
		func(rep faultinject.Report) uint64 { return rep.GoldenCycles },
		func(i int) (faultinject.Report, error) {
			return faultinject.RunBenchmark(benches[i], spec, i)
		})
	reports, err := runPoints(r.workers(), len(benches), fn)
	if err != nil {
		return nil, err
	}
	return &FaultBench{
		BenchMeta:  NewBenchMeta("faultcampaign", "kernel-benchmarks+radiosink"),
		Seed:       seed,
		Trials:     trials,
		Benchmarks: reports,
	}, nil
}

// FaultCampaignTable renders a campaign's per-benchmark verdict counts.
func FaultCampaignTable(b *FaultBench) *Table {
	verdicts := []string{
		faultinject.VerdictContainedFault,
		faultinject.VerdictContainedRecovered,
		faultinject.VerdictSilentCorruption,
		faultinject.VerdictCrossTaskBreach,
		faultinject.VerdictKernelCompromise,
	}
	t := &Table{
		ID: "faultcampaign",
		Title: fmt.Sprintf("Fault-injection campaign (seed %d, %d trials per benchmark)",
			b.Seed, b.Trials),
		Header: append([]string{"benchmark", "golden cycles"}, verdicts...),
	}
	for _, rep := range b.Benchmarks {
		row := []string{rep.Benchmark, fmt.Sprintf("%d", rep.GoldenCycles)}
		for _, v := range verdicts {
			row = append(row, fmt.Sprintf("%d", rep.Verdicts[v]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
