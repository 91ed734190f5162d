package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/online"
	"repro/internal/sweep"
)

// failureWorkload builds the shared E14/E15 scenario: a 6x6 arena under 50
// seeded random arrivals (so most pairs receive demand and a dead pair's
// lapse is observable), plus a deterministic death schedule killing a
// rng-selected fraction of cells at staggered arrival indices.
func failureWorkload(seed int64, frac float64) (*grid.Grid, *demand.Sequence, map[grid.Point]int) {
	const n = 6
	const jobCount = 50
	arena := grid.MustNew(n, n)
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]grid.Point, jobCount)
	for i := range jobs {
		jobs[i] = grid.P(rng.Intn(n), rng.Intn(n))
	}
	deaths := map[grid.Point]int{}
	// Cell selection consumes one draw per cell in fixed Points() order, so
	// the schedule is identical for every worker count; the i-th selected
	// cell dies right before arrival 5+3i, staggering the rescues.
	for _, p := range arena.Bounds().Points() {
		if rng.Float64() < frac {
			deaths[p] = 5 + 3*len(deaths)
		}
	}
	return arena, demand.NewSequence(jobs), deaths
}

// failureModelCase is one E14 column family: a named way of turning the
// death schedule into episode options.
type failureModelCase struct {
	name string
	opts func(deaths map[grid.Point]int) online.Options
}

func failureModelCases(arena *grid.Grid, seed int64) []failureModelCase {
	base := func(deaths map[grid.Point]int) online.Options {
		return online.Options{
			Arena: arena, CubeSide: arena.Size(0), Capacity: 14,
			Seed: seed, Monitoring: true,
			Failure: &online.FailureModel{DeadBeforeArrival: deaths},
		}
	}
	return []failureModelCase{
		{"crash-silent", base},
		{"crash-then-lie", func(deaths map[grid.Point]int) online.Options {
			o := base(deaths)
			byz := make(map[grid.Point]bool, len(deaths))
			for p := range deaths {
				byz[p] = true
			}
			o.Failure = &online.FailureModel{DeadBeforeArrival: deaths, Byzantine: byz}
			return o
		}},
		{"heterogeneous", func(deaths map[grid.Point]int) online.Options {
			o := base(deaths)
			o.Fleet = &online.Fleet{Classes: []online.VehicleClass{
				{Name: "standard"},
				{Name: "scout", Speed: 2, Energy: 0.5, Capacity: 0.75},
			}}
			return o
		}},
		{"gossip", func(deaths map[grid.Point]int) online.Options {
			o := base(deaths)
			o.Search = online.SearchGossip
			o.GossipFanout = 3
			return o
		}},
	}
}

// E14FailureModels compares the four failure/operating models of the
// adversarial failure engine across an increasing fraction of dead cells:
// silent crashes (caught by the beacon-timeout ring), crash-then-lie
// Byzantine casualties (forged heartbeats, caught only by the evidence
// channel and only once service actually lapses), a heterogeneous fleet
// under the same crashes, and gossip-based replacement search. The contrast
// the table makes: silent crashes are rescued proactively (near-zero
// replacement latency), while a lying casualty is unmasked only after it
// costs a job.
func E14FailureModels(fractions []float64, seed int64, workers int) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "failure-model comparison (crash vs byzantine vs heterogeneous vs gossip)",
		Columns: []string{"dead fraction", "model", "served", "silent rescues",
			"evidence rescues", "replacements", "mean latency", "messages"},
		Notes: "Silent crashes trip the beacon timeout and are repaired proactively; crash-then-lie casualties keep heartbeating, so only the evidence channel (a customer complaint after a lost job) unmasks them — detection is lazier and replacement latency strictly positive. The heterogeneous and gossip variants show both machineries are model-agnostic.",
	}
	type cell struct {
		served, silent, evidence, replacements, messages int64
		latency                                          float64
	}
	type row [4]cell
	arena := grid.MustNew(6, 6)
	cases := failureModelCases(arena, seed)
	rows, err := sweep.Map(sweep.Config{Workers: workers}, fractions,
		func(w *sweep.Worker, frac float64, _ int) (row, error) {
			if frac < 0 || frac > 1 {
				return row{}, fmt.Errorf("experiments: fraction %v outside [0,1]", frac)
			}
			_, seq, deaths := failureWorkload(seed, frac)
			var out row
			for i, c := range cases {
				res, err := w.Episode(c.opts(deaths), seq)
				if err != nil {
					return row{}, err
				}
				out[i] = cell{
					served:       res.Served,
					silent:       res.MonitorRescues,
					evidence:     res.EvidenceRescues,
					replacements: res.Replacements,
					messages:     res.Messages,
					latency:      res.MeanReplaceLatency(),
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		for j, c := range cases {
			t.AddRow(fractions[i], c.name, r[j].served, r[j].silent,
				r[j].evidence, r[j].replacements,
				fmt.Sprintf("%.2f", r[j].latency), r[j].messages)
		}
	}
	return t, nil
}

// E15GossipFidelity sweeps the gossip fanout (the fidelity/traffic knob) at
// a fixed failure fraction and compares it against the diffusing-computation
// baseline (fanout -1 in the table). Full flood (fanout 0) must reproduce
// the baseline row exactly — the degradation guarantee — while small fanouts
// trade discovery fidelity (failed searches, lost jobs) for message savings.
func E15GossipFidelity(fanouts []int, seed int64, workers int) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "gossip fidelity/traffic knob (fanout sweep vs diffuse baseline)",
		Columns: []string{"fanout", "served", "searches", "search failures",
			"replacements", "messages"},
		Notes: "Fanout -1 is the Dijkstra-Scholten diffusing computation; fanout 0 is gossip at full flood and matches it column for column. Below the node degree the rumor covers a subgraph: fewer messages, but a search can miss the only idle candidate and the lost pair stays down.",
	}
	const frac = 0.25
	arena, seq, deaths := failureWorkload(seed, frac)
	type row struct {
		served, searches, searchFailures, replacements, messages int64
	}
	rows, err := sweep.Map(sweep.Config{Workers: workers}, fanouts,
		func(w *sweep.Worker, fanout int, _ int) (row, error) {
			opts := online.Options{
				Arena: arena, CubeSide: arena.Size(0), Capacity: 14,
				Seed: seed, Monitoring: true,
				Failure: &online.FailureModel{DeadBeforeArrival: deaths},
			}
			if fanout >= 0 {
				opts.Search = online.SearchGossip
				opts.GossipFanout = fanout
			}
			res, err := w.Episode(opts, seq)
			if err != nil {
				return row{}, err
			}
			return row{res.Served, res.Searches, res.SearchFailures,
				res.Replacements, res.Messages}, nil
		})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		label := fmt.Sprintf("%d", fanouts[i])
		if fanouts[i] < 0 {
			label = "diffuse"
		} else if fanouts[i] == 0 {
			label = "0 (full flood)"
		}
		t.AddRow(label, r.served, r.searches, r.searchFailures,
			r.replacements, r.messages)
	}
	return t, nil
}
