package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/broken"
	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
	"repro/internal/offline"
	"repro/internal/online"
	"repro/internal/sweep"
)

// opResult is what one op reports: its digest record (the deterministic
// outputs the reference digest pins), its error, and for online episodes
// the counters the per-layer report aggregates.
type opResult struct {
	rec string
	err error
	ep  *episodeTally
}

// episodeTally sums online episode counters and the pool's build/reset
// split over a set of episodes.
type episodeTally struct {
	episodes, arrivals                      int64
	served, messages, searches, searchFails int64
	replacements, monitorRescues, evRescues int64
	builds, resets                          int64
}

func (t *episodeTally) add(o *episodeTally) {
	t.episodes += o.episodes
	t.arrivals += o.arrivals
	t.served += o.served
	t.messages += o.messages
	t.searches += o.searches
	t.searchFails += o.searchFails
	t.replacements += o.replacements
	t.monitorRescues += o.monitorRescues
	t.evRescues += o.evRescues
	t.builds += o.builds
	t.resets += o.resets
}

// doneFunc receives each finished op: its index in the round, its global op
// id, and its latency. It is safe for concurrent use.
type doneFunc func(i, op int, d time.Duration, r opResult)

// suite is one workload's generated inputs. A round plays ops 0..size()-1
// once, in order, and a later round repeats the same inputs. Serial rounds
// stop early at a non-zero deadline; the inputs are ordered so that any
// prefix of a round mixes every input shape evenly.
type suite interface {
	size() int
	// period is the number of consecutive ops that holds every input shape
	// once; throughput is measured per period.
	period() int
	round(t *tracer, firstOp int, deadline time.Time, done doneFunc)
}

// workload names a suite generator. setup builds every input from the seed
// alone.
type workload struct {
	name  string
	setup func(seed int64) (suite, error)
}

var workloads = []workload{
	{"spec-solve", newSpecSolve},
	{"broken-lp", newBrokenLP},
	{"failure-sweep", newFailureSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serialRound plays n ops one after another on the calling goroutine, the
// closed loop of a single client, until the deadline passes. It always plays
// the first op.
func serialRound(n, firstOp int, t *tracer, deadline time.Time, done doneFunc,
	op func(i, id, parent int) (string, error)) {
	for i := 0; i < n && (i == 0 || deadline.IsZero() || time.Now().Before(deadline)); i++ {
		id := firstOp + i
		start := time.Now()
		sp := t.begin("op", id, -1)
		rec, err := op(i, id, sp)
		t.end(sp)
		done(i, id, time.Since(start), opResult{rec: rec, err: err})
	}
}

// patterns are the demand shapes of the experiments' offline studies.
var patterns = []string{"uniform", "clusters", "zipf", "point", "line"}

// genDemand draws a demand of the given shape and job count inside box b.
func genDemand(rng *rand.Rand, b grid.Box, pattern string, jobs int64) (*demand.Map, error) {
	side := int(b.Side(0))
	mid := grid.P(int(b.Lo[0])+side/2, int(b.Lo[1])+side/2)
	switch pattern {
	case "uniform":
		return demand.Uniform(rng, b, jobs)
	case "clusters":
		return demand.Clusters(rng, b, 4, jobs/4, side/8+1)
	case "zipf":
		return demand.Zipf(rng, b, jobs, 1.4)
	case "point":
		return demand.PointMass(2, mid, jobs)
	case "line":
		return demand.Line(grid.P(int(b.Lo[0]), int(mid[1])), side, jobs/int64(side))
	}
	return nil, fmt.Errorf("unknown demand pattern %q", pattern)
}

// ftoa prints a float exactly (shortest representation that round-trips).
func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ---- spec-solve --------------------------------------------------------

// specSolve solves generated 2-D specs the way `cmvrp -online` does, plus
// the exact LP (2.1) bound, with the serial capacity search. Ops share no
// inputs and build everything cold.
type specSolve struct{ specs []solveSpec }

type solveSpec struct {
	label   string
	arena   *grid.Grid
	m       *demand.Map
	simSeed int64
}

// Arena sides are powers of two, which Algorithm 1 requires; the demand
// fills the arena's central half, as in experiment E5.
var (
	specSides = []int{16, 32}
	specJobs  = []int64{200, 500, 800}
	specDraws = 8
)

func newSpecSolve(seed int64) (suite, error) {
	rng := rand.New(rand.NewSource(seed))
	combos := len(specSides) * len(patterns) * len(specJobs)
	s := &specSolve{specs: make([]solveSpec, combos*specDraws)}
	for i := range s.specs {
		// The periods 2, 5 and 3 are coprime, so consecutive ops cycle
		// through every side, pattern and job count at once.
		side := specSides[i%len(specSides)]
		pattern := patterns[i%len(patterns)]
		jobs := specJobs[i%len(specJobs)]
		arena, err := grid.New(side, side)
		if err != nil {
			return nil, err
		}
		inner, err := grid.NewBox(2, grid.P(side/4, side/4), grid.P(3*side/4-1, 3*side/4-1))
		if err != nil {
			return nil, err
		}
		m, err := genDemand(rng, inner, pattern, jobs)
		if err != nil {
			return nil, err
		}
		s.specs[i] = solveSpec{
			label: fmt.Sprintf("%dx%d %s %d", side, side, pattern, m.Total()),
			arena: arena, m: m, simSeed: rng.Int63n(1 << 30),
		}
	}
	return s, nil
}

func (s *specSolve) size() int   { return len(s.specs) }
func (s *specSolve) period() int { return len(s.specs) / specDraws }

func (s *specSolve) round(t *tracer, firstOp int, deadline time.Time, done doneFunc) {
	serialRound(len(s.specs), firstOp, t, deadline, done, func(i, id, parent int) (string, error) {
		return s.solve(s.specs[i], t, id, parent)
	})
}

func (s *specSolve) solve(sp solveSpec, t *tracer, id, parent int) (string, error) {
	span := t.begin("offline.dense", id, parent)
	dense, err := offline.NewDense(sp.m, sp.arena)
	t.end(span)
	if err != nil {
		return "", err
	}
	span = t.begin("offline.omegac", id, parent)
	char, err := dense.OmegaC()
	t.end(span)
	if err != nil {
		return "", err
	}
	span = t.begin("offline.alg1", id, parent)
	alg, err := dense.Algorithm1()
	t.end(span)
	if err != nil {
		return "", err
	}
	span = t.begin("offline.schedule", id, parent)
	sched, err := dense.BuildSchedule(char)
	t.end(span)
	if err != nil {
		return "", err
	}
	span = t.begin("offline.verify", id, parent)
	_, err = offline.VerifySchedule(sp.m, sched, sched.W)
	t.end(span)
	if err != nil {
		return "", fmt.Errorf("%s: schedule failed verification: %w", sp.label, err)
	}
	span = t.begin("lpchar.omegastar", id, parent)
	ostar, err := lpchar.OmegaStarFlow(sp.m)
	t.end(span)
	if err != nil {
		return "", err
	}
	seq, err := demand.SequenceOf(sp.m, demand.OrderSorted, nil)
	if err != nil {
		return "", err
	}
	span, before := t.beginMem("online.partition", id, parent)
	part, err := online.NewPartition(sp.arena, char.Side)
	t.endMem(span, before)
	if err != nil {
		return "", err
	}
	span = t.begin("online.won", id, parent)
	won, err := online.MinCapacity(seq, online.Options{
		Arena: sp.arena, CubeSide: char.Side, Partition: part, Seed: sp.simSeed,
	}, 1, 0.05)
	t.end(span)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s omega_c=%s side=%d alg1=%s/%s W=%s plans=%d omega*=%s won=%s",
		sp.label, ftoa(char.Omega), char.Side, ftoa(alg.W), alg.Branch,
		ftoa(sched.W), len(sched.Plans), ftoa(ostar), ftoa(won)), nil
}

// ---- broken-lp ---------------------------------------------------------

// brokenLP computes the Chapter 4 LP lower bound on generated demand with
// generated longevities, plus the Figure 4.1 bound at one of experiment E9's
// r1 values. No simulator runs.
type brokenLP struct{ insts []brokenInstance }

type brokenInstance struct {
	label string
	m     *demand.Map
	lon   broken.Longevity
	r1    int
}

var (
	brokenSides = []int{16, 32}
	brokenJobs  = []int64{200, 400}
	brokenDraws = 20
	// fig41R1s gives each of the 20 shapes (c below) the r1 of its Fig 4.1
	// bound, from experiment E9's values: 2, 4 and 8 five times each, 16
	// four times and 32 once, the large ones on point and line demand,
	// whose LowerBound is cheapest. Fig 4.1 at r1 = 32 costs three times the
	// other four together; taking it once per 20 ops keeps ops short enough
	// for a run to hold many samples beyond p90, and leaves LowerBound most
	// of the op time.
	fig41R1s = []int{2, 4, 8, 32, 16, 2, 4, 8, 16, 16, 2, 4, 8, 16, 2, 4, 8, 2, 4, 8}
)

func newBrokenLP(seed int64) (suite, error) {
	rng := rand.New(rand.NewSource(seed))
	combos := len(patterns) * len(brokenSides) * len(brokenJobs)
	b := &brokenLP{insts: make([]brokenInstance, combos*brokenDraws)}
	for i := range b.insts {
		// i mod 20 is (pattern i mod 5, side and job count from i mod 4,
		// r1), so any stretch of a round mixes the shapes and costs evenly.
		c := i % combos
		pattern := patterns[c%len(patterns)]
		side := brokenSides[c%len(brokenSides)]
		jobs := brokenJobs[c/len(brokenSides)%len(brokenJobs)]
		box, err := grid.NewBox(2, grid.P(0, 0), grid.P(side-1, side-1))
		if err != nil {
			return nil, err
		}
		m, err := genDemand(rng, box, pattern, jobs)
		if err != nil {
			return nil, err
		}
		// A default longevity for the unlisted fleet plus overrides on about
		// a tenth of the box, a third of them broken from the start.
		lon := broken.Longevity{Default: 0.6 + 0.4*rng.Float64(), Override: map[grid.Point]float64{}}
		for _, p := range box.Points() {
			if rng.Float64() >= 0.1 {
				continue
			}
			v := 0.0
			if rng.Float64() >= 1.0/3 {
				v = rng.Float64()
			}
			lon.Override[p] = v
		}
		r1 := fig41R1s[c]
		b.insts[i] = brokenInstance{
			label: fmt.Sprintf("%dx%d %s %d p=%s overrides=%d r1=%d",
				side, side, pattern, m.Total(), ftoa(lon.Default), len(lon.Override), r1),
			m: m, lon: lon, r1: r1,
		}
	}
	return b, nil
}

func (b *brokenLP) size() int   { return len(b.insts) }
func (b *brokenLP) period() int { return len(b.insts) / brokenDraws }

func (b *brokenLP) round(t *tracer, firstOp int, deadline time.Time, done doneFunc) {
	serialRound(len(b.insts), firstOp, t, deadline, done, func(i, id, parent int) (string, error) {
		return b.bound(b.insts[i], t, id, parent)
	})
}

func (b *brokenLP) bound(in brokenInstance, t *tracer, id, parent int) (string, error) {
	span, before := t.beginMem("broken.lowerbound", id, parent)
	lb, err := broken.LowerBound(in.m, in.lon)
	t.endMem(span, before)
	if err != nil {
		return "", err
	}
	if !(lb > 0) || math.IsInf(lb, 0) {
		return "", fmt.Errorf("%s: lower bound %v is not a positive capacity", in.label, lb)
	}
	span = t.begin("broken.fig41", id, parent)
	f, err := broken.NewFig41(in.r1, 8*in.r1)
	var fig float64
	if err == nil {
		fig, err = f.LPBound()
	}
	t.end(span)
	if err != nil {
		return "", err
	}
	// Theorem 4.1.1 on the Figure 4.1 scenario: the LP bound is 2*r1.
	if want := float64(2 * in.r1); math.Abs(fig-want) > 1e-6*want {
		return "", fmt.Errorf("Fig 4.1 at r1=%d: LP bound %v, thesis value %v", in.r1, fig, want)
	}
	return fmt.Sprintf("%s lb=%s fig41=%s", in.label, ftoa(lb), ftoa(fig)), nil
}

// ---- failure-sweep -----------------------------------------------------

// failureSweep plays monitored failure episodes, E13/E14-style, through the
// sweep engine on one shared arena. Each round is one sweep.Run over every
// scenario, so each worker builds one runner per round and warm-resets it
// for the rest.
type failureSweep struct {
	workers   int
	scenarios []failureScenario
}

type failureScenario struct {
	label string
	opts  online.Options
	seq   *demand.Sequence
}

const (
	sweepSide     = 12
	sweepCube     = 6
	sweepJobs     = 150
	sweepCapacity = 14.0 // > cube diameter plus the serve reserve
	sweepDraws    = 4
)

var (
	failureModels = []string{"crash-silent", "crash-then-lie", "heterogeneous",
		"gossip-1", "gossip-2", "gossip-3", "fail-initiate"}
	deadFractions = []float64{0.125, 0.25, 0.375, 0.5}
)

func newFailureSweep(seed int64) (suite, error) {
	arena, err := grid.New(sweepSide, sweepSide)
	if err != nil {
		return nil, err
	}
	part, err := online.NewPartition(arena, sweepCube)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cells := arena.Bounds().Points()
	combos := len(failureModels) * len(deadFractions)
	s := &failureSweep{workers: min(2, runtime.NumCPU()),
		scenarios: make([]failureScenario, combos*sweepDraws)}
	for i := range s.scenarios {
		// The periods 7 and 4 are coprime: every combination appears once
		// per 28 scenarios.
		model := failureModels[i%len(failureModels)]
		frac := deadFractions[i%len(deadFractions)]
		jobs := make([]grid.Point, sweepJobs)
		if model == "fail-initiate" {
			// E13: one hot cell exhausts its cube's vehicles, some of which
			// then fail to start their replacement search.
			hot := cells[rng.Intn(len(cells))]
			for j := range jobs {
				jobs[j] = hot
			}
		} else {
			for j := range jobs {
				jobs[j] = cells[rng.Intn(len(cells))]
			}
		}
		// The i-th selected cell dies right before arrival 5+3i, staggering
		// the rescues as in E14.
		deaths := map[grid.Point]int{}
		marked := map[grid.Point]bool{}
		for _, p := range cells {
			if rng.Float64() < frac {
				deaths[p] = 5 + 3*len(deaths)
				marked[p] = true
			}
		}
		opts := online.Options{
			Arena: arena, Partition: part, Capacity: sweepCapacity,
			Seed: rng.Int63n(1 << 30), Monitoring: true,
			Failure: &online.FailureModel{DeadBeforeArrival: deaths},
		}
		switch model {
		case "crash-then-lie":
			opts.Failure.Byzantine = marked
		case "heterogeneous":
			opts.Fleet = &online.Fleet{Classes: []online.VehicleClass{
				{Name: "standard"},
				{Name: "scout", Speed: 2, Energy: 0.5, Capacity: 0.75},
			}}
		case "gossip-1", "gossip-2", "gossip-3":
			opts.Search = online.SearchGossip
			opts.GossipFanout = int(model[len(model)-1] - '0')
		case "fail-initiate":
			opts.Failure = &online.FailureModel{FailInitiate: marked}
		}
		s.scenarios[i] = failureScenario{
			label: fmt.Sprintf("%s frac=%s dead=%d", model, ftoa(frac), len(marked)),
			opts:  opts, seq: demand.NewSequence(jobs),
		}
	}
	return s, nil
}

func (s *failureSweep) size() int { return len(s.scenarios) }

// period is a whole round: a sweep's first and last episodes run while the
// other worker starts up or has finished, so only whole sweeps compare.
func (s *failureSweep) period() int { return len(s.scenarios) }

// round plays every scenario in one sweep; the deadline is not checked
// within it.
func (s *failureSweep) round(t *tracer, firstOp int, _ time.Time, done doneFunc) {
	rs := t.begin("sweep.round", -1, -1)
	// Episode errors are reported per op, so the sweep itself never fails.
	_, _ = sweep.Run(sweep.Config{Workers: s.workers}, len(s.scenarios),
		func(w *sweep.Worker, i int) (struct{}, error) {
			sc := s.scenarios[i]
			id := firstOp + i
			start := time.Now()
			span := t.begin("sweep.episode", id, rs)
			before := w.Pool().Stats()
			res, err := w.Episode(sc.opts, sc.seq)
			after := w.Pool().Stats()
			t.end(span)
			d := time.Since(start)
			r := opResult{err: err}
			if err == nil {
				r.ep = &episodeTally{
					episodes: 1, arrivals: int64(sc.seq.Len()),
					served: res.Served, messages: res.Messages,
					searches: res.Searches, searchFails: res.SearchFailures,
					replacements: res.Replacements, monitorRescues: res.MonitorRescues,
					evRescues: res.EvidenceRescues,
					builds:    int64(after.Builds - before.Builds),
					resets:    int64(after.Resets - before.Resets),
				}
				r.rec = fmt.Sprintf("%s served=%d/%d msgs=%d searches=%d fails=%d repl=%d mon=%d ev=%d lat=%d/%d maxE=%s",
					sc.label, res.Served, sc.seq.Len(), res.Messages, res.Searches,
					res.SearchFailures, res.Replacements, res.MonitorRescues,
					res.EvidenceRescues, res.ReplaceLatencySum, res.ReplaceLatencyCount,
					ftoa(res.MaxEnergy))
			}
			done(i, id, d, r)
			return struct{}{}, nil
		})
	t.end(rs)
}
