package experiment

import (
	"encoding/json"
	"os"
)

// BenchSchemaVersion is the current BENCH_*.json header version. Bump it
// when a payload changes shape incompatibly.
//
//	1  header carried the writing host (gomaxprocs, numcpu, goos, goarch,
//	   go_version)
//	2  host fields dropped: every byte of a payload is simulated
const BenchSchemaVersion = 2

// BenchMeta is the common header every BENCH_*.json payload embeds: schema
// version and which benchmark kind and set the file records. It names no
// host: every payload field is a simulated quantity, so a payload is the
// same bytes on any host, and the committed BENCH_energy.json and
// BENCH_warmstart.json are goldens (`make paper-golden`).
type BenchMeta struct {
	SchemaVersion int `json:"schema_version"`
	// Kind names the payload shape: "faultcampaign", "warmstart" or
	// "energy".
	Kind string `json:"kind"`
	// BenchmarkSet names the workload collection the numbers cover.
	BenchmarkSet string `json:"benchmark_set"`
}

// NewBenchMeta fills the header for a payload of the given kind and set.
func NewBenchMeta(kind, set string) BenchMeta {
	return BenchMeta{SchemaVersion: BenchSchemaVersion, Kind: kind, BenchmarkSet: set}
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
