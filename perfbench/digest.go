package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digestPath is the reference digest's file, relative to the repository
// root, which is where the benchmark runs.
const digestPath = "perfbench/digest.json"

// digestFile holds, for each workload, the record of every op of one round
// at defaultSeed: the deterministic outputs (omega_c, schedule W, LP values,
// Won, episode counters) printed exactly. Regenerate it with --write-digest
// only when a change is meant to alter outputs.
//
//go:embed digest.json
var digestFile []byte

// reference returns the reference records of a workload.
func reference(workload string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(digestFile, &all); err != nil {
		return nil, fmt.Errorf("digest.json: %w", err)
	}
	ref, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("digest.json has no records for workload %s", workload)
	}
	return ref, nil
}

// checkRecord compares op i's record with the reference.
func checkRecord(ref []string, i int, rec string) error {
	if i >= len(ref) {
		return fmt.Errorf("no reference record for op %d of a %d-op round", i, len(ref))
	}
	if rec != ref[i] {
		return fmt.Errorf("output differs from the reference digest:\n  got  %s\n  want %s", rec, ref[i])
	}
	return nil
}
