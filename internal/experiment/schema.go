package experiment

import (
	"encoding/json"
	"os"
	"runtime"
)

// BenchSchemaVersion is the current BENCH_*.json header version. Bump it
// when a payload changes shape incompatibly; the comparator refuses to diff
// files whose versions disagree (a version of 0 marks a pre-header legacy
// file, which still compares via field inference).
const BenchSchemaVersion = 1

// BenchMeta is the common header every BENCH_*.json payload embeds: schema
// version, which benchmark kind and set the file records, and enough host
// context to interpret absolute wall-clock numbers. Embedding keeps the
// legacy top-level json keys ("gomaxprocs", "numcpu") stable, so files
// written before the header existed still unmarshal.
type BenchMeta struct {
	SchemaVersion int `json:"schema_version"`
	// Kind names the payload shape: "interp", "faultcampaign", "warmstart",
	// or "energy".
	Kind string `json:"kind"`
	// BenchmarkSet names the workload collection the numbers cover.
	BenchmarkSet string `json:"benchmark_set"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"numcpu"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GoVersion    string `json:"go_version"`
}

// NewBenchMeta fills the header for the current host.
func NewBenchMeta(kind, set string) BenchMeta {
	return BenchMeta{
		SchemaVersion: BenchSchemaVersion,
		Kind:          kind,
		BenchmarkSet:  set,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GoVersion:     runtime.Version(),
	}
}

// MarshalBench renders a BENCH_*.json payload in the repository's canonical
// encoding (two-space indent, trailing newline).
func MarshalBench(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteBenchFile writes a payload to path in the canonical encoding and
// returns the bytes written — the single writer behind every BENCH_* file
// the cmd/sensmart-bench runners produce.
func WriteBenchFile(path string, v any) ([]byte, error) {
	data, err := MarshalBench(v)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return data, nil
}
