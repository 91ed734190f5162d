package broken

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/lpchar"
)

// feasibleRef is the point-keyed LP (4.1) oracle LowerBound ran before it
// moved onto lpchar's supply index, kept verbatim as the reference the
// weighted probe must match verdict for verdict: every vehicle i supplies at
// most p_i*omega within radius p_i*omega.
func feasibleRef(m *demand.Map, lon Longevity, omega float64) (bool, error) {
	total := float64(m.Total())
	if total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	support := m.Support()
	// Suppliers: lattice points i with p_i*omega >= dist(i, some demand).
	// The candidate region is the support's neighborhoods of radius
	// maxP*omega.
	maxP := lon.Default
	for _, v := range lon.Override {
		if v > maxP {
			maxP = v
		}
	}
	maxR := int(math.Floor(maxP * omega))
	seen := make(map[grid.Point]bool)
	var suppliers []grid.Point
	for _, s := range support {
		b, err := grid.NewBox(m.Dim(), s, s)
		if err != nil {
			return false, err
		}
		for _, p := range grid.NeighborhoodPoints(b, maxR) {
			if seen[p] {
				continue
			}
			seen[p] = true
			if lon.At(p) > 0 {
				suppliers = append(suppliers, p)
			}
		}
	}
	n := 2 + len(suppliers) + len(support)
	nw, err := flow.NewNetwork(n)
	if err != nil {
		return false, err
	}
	src, sink := 0, n-1
	for i, p := range suppliers {
		if _, err := nw.AddEdge(src, 1+i, lon.At(p)*omega); err != nil {
			return false, err
		}
	}
	for j, q := range support {
		dj := 1 + len(suppliers) + j
		if _, err := nw.AddEdge(dj, sink, float64(m.At(q))); err != nil {
			return false, err
		}
		for i, p := range suppliers {
			if float64(grid.Manhattan(p, q)) <= lon.At(p)*omega {
				if _, err := nw.AddEdge(1+i, dj, math.Inf(1)); err != nil {
					return false, err
				}
			}
		}
	}
	val, err := nw.MaxFlow(src, sink)
	if err != nil {
		return false, err
	}
	return val >= total*(1-1e-9)-1e-9, nil
}

// parityInstances draws the randomized instances TestProbeMatchesReference
// runs: compact and spread supports (the spread ones land on the supply
// index's sparse map fallback), zero-longevity overrides, a zero default
// with positive overrides, uniform p=1, and 1-D/3-D arenas.
func parityInstances(t *testing.T, seed int64) []testInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	uniform := func(box grid.Box, jobs int64) *demand.Map {
		m, err := demand.Uniform(rng, box, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	side := 6 + rng.Intn(10)
	compact := mustBox(t, 2, grid.P(0, 0), grid.P(side-1, side-1))
	spread := mustBox(t, 2, grid.P(0, 0), grid.P(399, 399))
	line := mustBox(t, 1, grid.P(0), grid.P(19+rng.Intn(20)))
	cube := mustBox(t, 3, grid.P(0, 0, 0), grid.P(4, 4, 4))
	ring := mustBox(t, 2, grid.P(-3, -3), grid.P(side+2, side+2))

	zeroed := Longevity{Default: 1, Override: map[grid.Point]float64{}}
	for _, p := range ring.Points() {
		if rng.Intn(2) == 0 {
			zeroed.Override[p] = 0
		}
	}
	return []testInstance{
		{"compact", uniform(compact, 10+rng.Int63n(150)),
			genLongevity(rng, compact, 0.3+0.7*rng.Float64(), 0.2)},
		{"spread", uniform(spread, 3+rng.Int63n(8)),
			Longevity{Default: 0.2 + 0.8*rng.Float64()}},
		{"zero-overrides", uniform(compact, 10+rng.Int63n(100)), zeroed},
		{"zero-default", uniform(compact, 5+rng.Int63n(20)),
			genLongevity(rng, ring, 0, 0.3)},
		{"uniform-p1", uniform(compact, 10+rng.Int63n(150)), Longevity{Default: 1}},
		{"1d", uniform(line, 5+rng.Int63n(40)),
			genLongevity(rng, line, 0.3+0.7*rng.Float64(), 0.3)},
		{"3d", uniform(cube, 5+rng.Int63n(60)),
			genLongevity(rng, cube, 0.3+0.7*rng.Float64(), 0.3)},
	}
}

// TestProbeMatchesReference walks LowerBound's doubling-then-bisection
// trajectory with the reference oracle and asserts that lpchar's weighted
// probe returns the reference verdict at every omega on it, then at random
// omegas in random order (so the probe's index grows out of order), and
// that LowerBound lands on the reference trajectory's value bit for bit.
func TestProbeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, in := range parityInstances(t, seed) {
			maxP := in.lon.Default
			for _, v := range in.lon.Override {
				maxP = math.Max(maxP, v)
			}
			probe, err := lpchar.NewWeightedProbe(in.m, in.lon.At, maxP)
			if err != nil {
				t.Fatal(err)
			}
			check := func(omega float64) bool {
				t.Helper()
				want, err := feasibleRef(in.m, in.lon, omega)
				if err != nil {
					t.Fatal(err)
				}
				got, err := probe.FeasibleAt(omega)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d %s: probe at omega %v says %v, reference %v",
						seed, in.name, omega, got, want)
				}
				return want
			}
			hi := 1.0
			for !check(hi) {
				hi *= 2
				if hi > 1e12 {
					t.Fatalf("seed %d %s: no feasible omega", seed, in.name)
				}
			}
			lo := 0.0
			for iter := 0; iter < 60 && hi-lo > 1e-9*math.Max(1, hi); iter++ {
				mid := (lo + hi) / 2
				if check(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			got, err := LowerBound(in.m, in.lon)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(hi) {
				t.Errorf("seed %d %s: LowerBound %v, reference trajectory %v", seed, in.name, got, hi)
			}
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 8; k++ {
				check(2 * hi * rng.Float64())
			}
		}
	}
}

func TestLongevityValidate(t *testing.T) {
	if err := (Longevity{Default: 1}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Longevity{Default: 1.5}).Validate(); err == nil {
		t.Error("default > 1 should fail")
	}
	bad := Longevity{Default: 1, Override: map[grid.Point]float64{grid.P(0, 0): -0.1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative override should fail")
	}
	// NaN compares false against both ends of [0,1]; it must still be
	// rejected with the same error, not surface later as a search failure
	// (NaN default) or as a silently broken vehicle (NaN override).
	if err := (Longevity{Default: math.NaN()}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "outside [0,1]") {
		t.Errorf("NaN default: %v", err)
	}
	nan := Longevity{Default: 1, Override: map[grid.Point]float64{grid.P(0, 0): math.NaN()}}
	if err := nan.Validate(); err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
		t.Errorf("NaN override: %v", err)
	}
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := LowerBound(m, nan); err == nil {
		t.Errorf("LowerBound accepted a NaN override (returned %v)", v)
	}
}

func TestLongevityAt(t *testing.T) {
	l := Longevity{Default: 0.5, Override: map[grid.Point]float64{grid.P(1, 1): 0.9}}
	if l.At(grid.P(1, 1)) != 0.9 || l.At(grid.P(2, 2)) != 0.5 {
		t.Error("At lookup wrong")
	}
}

func TestLowerBoundReducesToHealthyLP(t *testing.T) {
	// With all p_i = 1, LP (4.1) is exactly the self-consistent program
	// (2.8), so LowerBound must agree with lpchar.OmegaStarFlow.
	m, err := demand.PointMass(2, grid.P(0, 0), 40)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := LowerBound(m, Longevity{Default: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lpchar.OmegaStarFlow(m)
	if err != nil {
		t.Fatal(err)
	}
	// Program (2.8) uses radius floor(omega); LP (4.1) with p=1 uses radius
	// omega. Both characterize the same crossing within one radius step, so
	// compare loosely.
	if healthy < want*0.7 || healthy > want*1.5 {
		t.Errorf("healthy LowerBound %v vs omega* %v", healthy, want)
	}
}

func TestLowerBoundAllBrokenFails(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LowerBound(m, Longevity{Default: 0}); err == nil {
		t.Error("demand with all vehicles broken should be infeasible")
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if v, err := LowerBound(demand.NewMap(2), Longevity{Default: 1}); err != nil || v != 0 {
		t.Errorf("empty: %v %v", v, err)
	}
}

func TestLowerBoundMonotoneInLongevity(t *testing.T) {
	// Shrinking every p_i can only increase the required omega.
	m, err := demand.PointMass(2, grid.P(0, 0), 60)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, p := range []float64{1, 0.5, 0.25} {
		v, err := LowerBound(m, Longevity{Default: p})
		if err != nil {
			t.Fatal(err)
		}
		if v < prev*(1-1e-9) {
			t.Fatalf("bound decreased when longevity shrank: p=%v gives %v after %v",
				p, v, prev)
		}
		prev = v
	}
}

func TestNewFig41Validation(t *testing.T) {
	if _, err := NewFig41(0, 100); err == nil {
		t.Error("r1 0 should fail")
	}
	if _, err := NewFig41(4, 8); err == nil {
		t.Error("r2 < 6*r1 should fail")
	}
}

// TestFig41GapGrowsQuadratically reproduces Section 4.2: the LP bound is
// 2*r1 while the only feasible strategy needs Theta(r1^2) energy, so the
// ratio grows linearly in r1 — the Theorem 4.1.1 bound is not tight.
func TestFig41GapGrowsQuadratically(t *testing.T) {
	var prevRatio float64
	for _, r1 := range []int{2, 4, 8, 16} {
		f, err := NewFig41(r1, 8*r1)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := f.LPBound()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lp-2*float64(r1)) > 0.01*float64(r1)+0.5 {
			t.Errorf("r1=%d: LP bound %v, thesis says 2*r1=%d", r1, lp, 2*r1)
		}
		truth := f.TrueRequirement()
		// Travel alone matches the thesis closed form; TrueRequirement adds
		// the 2*r1 service units.
		wantTravel := f.TravelFormula()
		if math.Abs(truth-(wantTravel+2*float64(r1))) > 1e-9 {
			t.Errorf("r1=%d: simulated %v, formula travel %v + serve %d",
				r1, truth, wantTravel, 2*r1)
		}
		ratio := truth / lp
		if ratio <= prevRatio {
			t.Errorf("r1=%d: gap ratio %v did not grow (prev %v)", r1, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 8 {
		t.Errorf("final gap ratio %v too small to demonstrate non-tightness", prevRatio)
	}
}

func TestFig41GeometryAndArrivals(t *testing.T) {
	f, err := NewFig41(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Manhattan(f.I, f.J) != 6 {
		t.Error("i and j must be 2*r1 apart")
	}
	if grid.Manhattan(f.I, f.K) != 3 || grid.Manhattan(f.J, f.K) != 3 {
		t.Error("k must be midway")
	}
	if f.Lon.At(f.K) != 1 {
		t.Error("k must be healthy")
	}
	if f.Lon.At(grid.P(1, 1)) != 0 {
		t.Error("in-circle vehicles must be broken")
	}
	if f.Lon.At(grid.P(100, 100)) != 1 {
		t.Error("outside vehicles must be healthy")
	}
	if f.Arrival.Len() != 6 {
		t.Errorf("arrivals %d, want 2*r1", f.Arrival.Len())
	}
	if f.Arrival.At(0) != f.I || f.Arrival.At(1) != f.J {
		t.Error("arrivals must alternate starting at i")
	}
}

// TestLowerBoundSparseSupport is the fail-clean check for spatially spread
// demand: two points 2*10^6 apart span a ~10^12-point bounding box, so the
// supply index must take its sparse map fallback. A densified box would
// blow both budgets by many orders of magnitude.
func TestLowerBoundSparseSupport(t *testing.T) {
	const (
		allocBudget = 200
		byteBudget  = 64 << 10
	)
	in := sparseInstance(t)
	// Below omega = 2 each point's 4 jobs have only the vehicle on it, at
	// supply 0.5*omega < 1; at omega = 2 the reach 0.5*omega hits 1 and the
	// four neighbors join, supplying 5 >= 4.
	v, err := LowerBound(in.m, in.lon)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Errorf("LowerBound %v, want 2", v)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LowerBound(in.m, in.lon); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LowerBound(in.m, in.lon); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if allocs > allocBudget {
		t.Errorf("%v allocs per call, budget %d", allocs, allocBudget)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > byteBudget {
		t.Errorf("%d bytes allocated per call, budget %d", b, byteBudget)
	}
}
