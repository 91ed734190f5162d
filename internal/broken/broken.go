// Package broken reproduces thesis Chapter 4: CMVRP when vehicles may break
// down. Each vehicle i has a longevity parameter p_i in [0,1] and dies after
// spending a fraction p_i of its initial energy. The package holds the
// Longevity model, the Figure 4.1 scenario with its reference formulas —
// showing that, unlike the healthy case, the LP bound is not tight: arrival
// *order* matters, and the true requirement grows quadratically while the LP
// bound stays linear — and LowerBound, a thin wrapper that solves the
// Theorem 4.1.1 program (supply p_i*omega within radius p_i*omega) on
// lpchar's shared LP core.
package broken

import (
	"fmt"
	"math"

	"repro/internal/demand"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

// Longevity maps positions to p_i. Positions absent from Override get
// Default. Default covers the infinitely many unlisted vehicles.
type Longevity struct {
	Default  float64
	Override map[grid.Point]float64
}

// At returns p_i for the vehicle at x.
func (l Longevity) At(x grid.Point) float64 {
	if v, ok := l.Override[x]; ok {
		return v
	}
	return l.Default
}

// Validate checks all parameters lie in [0,1]; NaN lies outside.
func (l Longevity) Validate() error {
	if !(l.Default >= 0 && l.Default <= 1) {
		return fmt.Errorf("broken: default longevity %v outside [0,1]", l.Default)
	}
	for p, v := range l.Override {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("broken: longevity %v at %v outside [0,1]", v, p)
		}
	}
	return nil
}

// LowerBound computes the Theorem 4.1.1 lower bound on Woff-b: the value of
// LP (4.1), found by binary search on omega with lpchar's weighted max-flow
// probe, each vehicle weighted by its longevity. The search bracket doubles
// from 1 until feasible. The override map is scanned once per call for max
// p_i and looked up once per supplier whenever the probe's index grows —
// never per probe.
func LowerBound(m *demand.Map, lon Longevity) (float64, error) {
	if err := lon.Validate(); err != nil {
		return 0, err
	}
	if m.Total() == 0 {
		return 0, nil
	}
	maxP := lon.Default
	for _, v := range lon.Override {
		maxP = math.Max(maxP, v)
	}
	probe, err := lpchar.NewWeightedProbe(m, lon.At, maxP)
	if err != nil {
		return 0, err
	}
	v, ok, err := probe.Value()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("broken: no feasible omega below 1e12 (all longevities zero near demand?)")
	}
	return v, nil
}

// Fig41 is the thesis Figure 4.1 scenario: demand points i and j at mutual
// distance 2*r1 with the only usable vehicle k midway between them; all
// other vehicles within distance r2 of k are broken from the start (p=0) and
// vehicles beyond the circle (p=1) are too far to matter when r2 >> r1.
// Requests alternate i, j, i, j, ... with r1 jobs at each point.
type Fig41 struct {
	R1, R2  int
	I, J, K grid.Point
	Demand  *demand.Map
	Arrival *demand.Sequence
	Lon     Longevity
}

// NewFig41 constructs the scenario in 2-D, centered at the origin.
func NewFig41(r1, r2 int) (*Fig41, error) {
	if r1 < 1 {
		return nil, fmt.Errorf("broken: r1 %d must be >= 1", r1)
	}
	if r2 < 6*r1 {
		// The thesis needs r2 >> r1 so that healthy vehicles outside the
		// circle stay unreachable at omega ~ r1 scale; 6*r1 keeps them out
		// of reach even for the binary search's doubling overshoot.
		return nil, fmt.Errorf("broken: r2 %d must be at least 6*r1 (thesis needs r2 >> r1)", r2)
	}
	k := grid.P(0, 0)
	i := grid.P(-r1, 0)
	j := grid.P(r1, 0)
	m, seq, err := demand.Alternating(2, i, j, int64(r1))
	if err != nil {
		return nil, err
	}
	// Vehicles inside the circle of radius r2 around k are broken (p=0),
	// except k itself. The L1 disc holds 2*r2^2 + 2*r2 + 1 points.
	over := make(map[grid.Point]float64, 2*r2*r2+2*r2+1)
	for x := -r2; x <= r2; x++ {
		h := r2 - max(x, -x)
		for y := -h; y <= h; y++ {
			over[grid.P(x, y)] = 0
		}
	}
	over[k] = 1
	return &Fig41{
		R1: r1, R2: r2, I: i, J: j, K: k,
		Demand:  m,
		Arrival: seq,
		Lon:     Longevity{Default: 1, Override: over},
	}, nil
}

// LPBound returns the Theorem 4.1.1 lower bound for the scenario. The thesis
// shows it equals 2*r1 (vehicle k ships r1 to each of i and j).
func (f *Fig41) LPBound() (float64, error) {
	return LowerBound(f.Demand, f.Lon)
}

// TrueRequirement simulates the only strategy available to vehicle k —
// walking back and forth between i and j as requests alternate — and returns
// the exact energy it needs: travel plus 2*r1 service units. The thesis
// computes the travel as r1 + (2*r1 - 1) * 2*r1, quadratic in r1 while the
// LP bound is linear: the bound is not tight once breakdowns are allowed.
func (f *Fig41) TrueRequirement() float64 {
	pos := f.K
	energy := 0.0
	for idx := 0; idx < f.Arrival.Len(); idx++ {
		target := f.Arrival.At(idx)
		energy += float64(grid.Manhattan(pos, target)) // walk
		energy++                                       // serve
		pos = target
	}
	return energy
}

// TravelFormula returns the closed-form travel distance from the thesis'
// Section 4.2 analysis: r1 + (2*r1 - 1) * 2*r1.
func (f *Fig41) TravelFormula() float64 {
	r1 := float64(f.R1)
	return r1 + (2*r1-1)*2*r1
}
