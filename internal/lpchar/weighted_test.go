package lpchar

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
)

// hashWeight is a deterministic pseudo-random weight in [0, 1) per lattice
// point, a quarter of them exactly zero.
func hashWeight(p grid.Point) float64 {
	h := uint64(14695981039346656037)
	for _, c := range p {
		h = (h ^ uint64(uint32(c))) * 1099511628211
	}
	if h%4 == 0 {
		return 0
	}
	return float64(h>>11) / (1 << 53)
}

// TestWeightedProbeHistoryIndependent pins that a probe's max flow depends on
// omega alone, not on the radius its index was last grown to: a warm probe
// driven through out-of-order omegas returns the same float, bit for bit, as
// a fresh probe built for each omega.
func TestWeightedProbeHistoryIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		box, err := grid.NewBox(2, grid.P(0, 0), grid.P(7+trial, 7+trial))
		if err != nil {
			t.Fatal(err)
		}
		m, err := demand.Uniform(rng, box, 20+rng.Int63n(60))
		if err != nil {
			t.Fatal(err)
		}
		warm, err := NewWeightedProbe(m, hashWeight, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 12; k++ {
			omega := 0.25 + 12*rng.Float64()
			fresh, err := NewWeightedProbe(m, hashWeight, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.maxFlow(omega)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.maxFlow(omega)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d omega %v: warm max flow %v, fresh %v (warm radius %d)",
					trial, omega, got, want, warm.idxR)
			}
		}
	}
}

func TestWeightedProbeRejectsBadInput(t *testing.T) {
	m, err := demand.PointMass(2, grid.P(0, 0), 5)
	if err != nil {
		t.Fatal(err)
	}
	one := func(grid.Point) float64 { return 1 }
	for _, maxW := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewWeightedProbe(m, one, maxW); err == nil {
			t.Errorf("max weight %v accepted", maxW)
		}
	}
	// A weight above the declared maximum would be missed by the radius
	// floor(maxW*omega), so the index rejects it.
	p, err := NewWeightedProbe(m, one, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FeasibleAt(4); err == nil {
		t.Error("weight above max weight accepted")
	}
	// A failed rebuild must not leave a half-built index behind. Weights
	// alternate 0.5/0.25 by coordinate parity up to x = 5 and exceed the
	// maximum beyond, so the radius-8 rebuild fails part-way through; 22
	// jobs make omega = 4 exactly feasible at radius 2, a verdict any mix-up
	// of stale and fresh weights would flip.
	mixed := func(q grid.Point) float64 {
		switch {
		case q[0] >= 6:
			return 1
		case (q[0]+q[1])%2 == 0:
			return 0.5
		}
		return 0.25
	}
	m22, err := demand.PointMass(2, grid.P(0, 0), 22)
	if err != nil {
		t.Fatal(err)
	}
	p, err = NewWeightedProbe(m22, mixed, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	before, err := p.FeasibleAt(4)
	if err != nil || !before {
		t.Fatalf("omega 4 on 22 jobs: %v %v, want feasible", before, err)
	}
	if _, err := p.FeasibleAt(16); err == nil {
		t.Error("weight above max weight accepted at a larger radius")
	}
	if after, err := p.FeasibleAt(4); err != nil || after != before {
		t.Errorf("after a failed rebuild: %v %v, want %v", after, err, before)
	}
	p, err = NewWeightedProbe(m, one, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := p.FeasibleAt(omega); err == nil {
			t.Errorf("omega %v accepted", omega)
		}
	}
	if ok, err := p.FeasibleAt(0); ok || err != nil {
		t.Errorf("omega 0: %v %v", ok, err)
	}
	// Everyone broken: the doubling search gives up without an error.
	p, err = NewWeightedProbe(m, func(grid.Point) float64 { return 0 }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := p.Value(); ok || err != nil {
		t.Errorf("all-zero weights: ok=%v err=%v", ok, err)
	}
	empty, err := NewWeightedProbe(demand.NewMap(2), one, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := empty.Value(); v != 0 || !ok || err != nil {
		t.Errorf("empty demand: %v %v %v", v, ok, err)
	}
}

// pointKeyedGraph is the point-keyed LP (4.1) construction the weighted
// probe replaces, over a weight function: suppliers in first-discovery
// order of sorted support x NeighborhoodPoints(maxR), positive weights only;
// per demand its sink edge, then arcs from every reaching supplier in
// supplier order. It returns the built network and its edge count.
func pointKeyedGraph(t *testing.T, m *demand.Map, weight func(grid.Point) float64, maxW, omega float64) (*flow.Network, int) {
	t.Helper()
	support := m.Support()
	maxR := int(math.Floor(maxW * omega))
	seen := map[grid.Point]bool{}
	var suppliers []grid.Point
	for _, s := range support {
		b, err := grid.NewBox(m.Dim(), s, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range grid.NeighborhoodPoints(b, maxR) {
			if !seen[p] {
				seen[p] = true
				if weight(p) > 0 {
					suppliers = append(suppliers, p)
				}
			}
		}
	}
	n := 2 + len(suppliers) + len(support)
	nw, err := flow.NewNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	add := func(u, v int, c float64) {
		if _, err := nw.AddEdge(u, v, c); err != nil {
			t.Fatal(err)
		}
		edges++
	}
	for i, p := range suppliers {
		add(0, 1+i, weight(p)*omega)
	}
	for j, q := range support {
		dj := 1 + len(suppliers) + j
		add(dj, n-1, float64(m.At(q)))
		for i, p := range suppliers {
			if float64(grid.Manhattan(p, q)) <= weight(p)*omega {
				add(1+i, dj, math.Inf(1))
			}
		}
	}
	return nw, edges
}

// TestWeightedProbeMatchesPointKeyedGraph checks the construction itself,
// not just its verdicts: after one max-flow solve on the probe's network and
// on the point-keyed reference, the node counts, the flow on every edge id
// and the max-flow value agree bit for bit — so the two graphs list the
// same edges in the same order.
func TestWeightedProbeMatchesPointKeyedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		dim := 1 + trial%3
		hi := grid.Point{}
		for i := 0; i < dim; i++ {
			hi[i] = int32(4 + rng.Intn(8-2*dim+2))
		}
		box, err := grid.NewBox(dim, grid.Point{}, hi)
		if err != nil {
			t.Fatal(err)
		}
		m, err := demand.Uniform(rng, box, 10+rng.Int63n(60))
		if err != nil {
			t.Fatal(err)
		}
		maxW := 0.5 + 0.5*rng.Float64()
		weight := func(p grid.Point) float64 { return maxW * hashWeight(p) }
		probe, err := NewWeightedProbe(m, weight, maxW)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 6; k++ {
			omega := 0.5 + 8*rng.Float64()
			got, err := probe.maxFlow(omega)
			if err != nil {
				t.Fatal(err)
			}
			ref, edges := pointKeyedGraph(t, m, weight, maxW, omega)
			want, err := ref.MaxFlow(0, ref.N()-1)
			if err != nil {
				t.Fatal(err)
			}
			if probe.nw.N() != ref.N() || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d omega %v: %d nodes flow %v, reference %d nodes flow %v",
					trial, omega, probe.nw.N(), got, ref.N(), want)
			}
			for e := 0; e < edges; e++ {
				if a, b := probe.nw.Flow(2*e), ref.Flow(2*e); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("trial %d omega %v: edge %d carries %v, reference %v", trial, omega, e, a, b)
				}
			}
		}
	}
}
