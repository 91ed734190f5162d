package broken

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/grid"
)

// testInstance is one LP (4.1) instance: demand plus fleet longevities.
type testInstance struct {
	name string
	m    *demand.Map
	lon  Longevity
}

// genLongevity draws overrides on about frac of the points of box, a third
// of them broken from the start (p = 0) and the rest uniform in [0,1); every
// other vehicle gets def.
func genLongevity(rng *rand.Rand, box grid.Box, def, frac float64) Longevity {
	lon := Longevity{Default: def, Override: map[grid.Point]float64{}}
	for _, p := range box.Points() {
		if rng.Float64() >= frac {
			continue
		}
		v := 0.0
		if rng.Float64() >= 1.0/3 {
			v = rng.Float64()
		}
		lon.Override[p] = v
	}
	return lon
}

func mustBox(t testing.TB, dim int, lo, hi grid.Point) grid.Box {
	t.Helper()
	b, err := grid.NewBox(dim, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// genUniform is a seeded uniform instance over box with overrides on about a
// tenth of the box and a default longevity in [0.6, 1).
func genUniform(t testing.TB, name string, seed int64, box grid.Box, jobs int64) testInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := demand.Uniform(rng, box, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return testInstance{name, m, genLongevity(rng, box, 0.6+0.4*rng.Float64(), 0.1)}
}

// benchInstance is the generated 32x32, 400-job instance with overrides that
// BenchmarkLowerBound and the allocation guard run on.
func benchInstance(t testing.TB) testInstance {
	t.Helper()
	return genUniform(t, "uniform32-400", 11, mustBox(t, 2, grid.P(0, 0), grid.P(31, 31)), 400)
}

// sparseInstance puts demand at two points 2*10^6 apart: the support's
// bounding box holds ~10^12 lattice points and must never be densified.
func sparseInstance(t testing.TB) testInstance {
	t.Helper()
	m := demand.NewMap(2)
	for _, p := range []grid.Point{grid.P(0, 0), grid.P(1000000, 1000000)} {
		if err := m.Add(p, 4); err != nil {
			t.Fatal(err)
		}
	}
	return testInstance{"sparse", m, Longevity{Default: 0.5}}
}

// goldenInstances are the fixed instances whose LowerBound bits are pinned.
func goldenInstances(t testing.TB) []testInstance {
	t.Helper()
	var out []testInstance
	pm := func(name string, jobs int64, lon Longevity) {
		m, err := demand.PointMass(2, grid.P(0, 0), jobs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testInstance{name, m, lon})
	}
	pm("point40-p1", 40, Longevity{Default: 1})
	pm("point60-p0.5", 60, Longevity{Default: 0.5})
	out = append(out,
		genUniform(t, "uniform16-200", 1, mustBox(t, 2, grid.P(0, 0), grid.P(15, 15)), 200),
		benchInstance(t))

	rng := rand.New(rand.NewSource(2))
	box := mustBox(t, 2, grid.P(0, 0), grid.P(31, 31))
	cl, err := demand.Clusters(rng, box, 4, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testInstance{"clusters32-400", cl, genLongevity(rng, box, 0.8, 0.2)})

	rng = rand.New(rand.NewSource(3))
	line, err := demand.Line(grid.P(0, 0), 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, testInstance{"line12-p0.25", line,
		genLongevity(rng, mustBox(t, 2, grid.P(-4, -4), grid.P(15, 4)), 0.25, 0.3)})

	out = append(out,
		genUniform(t, "uniform1d-60", 4, mustBox(t, 1, grid.P(0), grid.P(39)), 60),
		genUniform(t, "uniform3d-80", 5, mustBox(t, 3, grid.P(0, 0, 0), grid.P(5, 5, 5)), 80),
		sparseInstance(t))
	return out
}

// goldenBits are math.Float64bits of LowerBound on goldenInstances and of
// the Fig 4.1 LP bound at r1 = 2, 4, 8, 16, 32 (r2 = 8*r1, as E9 runs it),
// captured from the point-keyed reference implementation before the probe
// moved onto lpchar's supply index. They are never re-pinned: a change here
// means LP (4.1) no longer builds the reference graph edge for edge.
var goldenBits = map[string]uint64{
	"point40-p1":     0x4008000000000000, // 3
	"point60-p0.5":   0x4018000000000000, // 6
	"uniform16-200":  0x3ff9fb0af9400000, // 1.623789762146771
	"uniform32-400":  0x3ffa7741ae400000, // 1.654115372337401
	"clusters32-400": 0x400ae1d0c9400000, // 3.36026150919497
	"line12-p0.25":   0x401529271c000000, // 5.290188252925873
	"uniform1d-60":   0x40083c54bec00000, // 3.029458513483405
	"uniform3d-80":   0x3ff63d6f95800000, // 1.3899989929050207
	"sparse":         0x4000000000000000, // 2
	"fig41-r2":       0x400fffffff800000, // 3.9999999962747097
	"fig41-r4":       0x401fffffff800000, // 7.999999992549419
	"fig41-r8":       0x402fffffff800000, // 15.999999985098839
	"fig41-r16":      0x403fffffff800000, // 31.999999970197678
	"fig41-r32":      0x404fffffff800000, // 63.999999940395355
}

func TestGoldenLowerBound(t *testing.T) {
	got := map[string]uint64{}
	for _, in := range goldenInstances(t) {
		v, err := LowerBound(in.m, in.lon)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		got[in.name] = math.Float64bits(v)
	}
	for _, r1 := range []int{2, 4, 8, 16, 32} {
		f, err := NewFig41(r1, 8*r1)
		if err != nil {
			t.Fatal(err)
		}
		v, err := f.LPBound()
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("fig41-r%d", r1)] = math.Float64bits(v)
	}
	if len(got) != len(goldenBits) {
		t.Errorf("%d values for %d pins", len(got), len(goldenBits))
	}
	for name, bits := range got {
		want, ok := goldenBits[name]
		if !ok {
			t.Errorf("%s: no pinned value (got %v)", name, math.Float64frombits(bits))
			continue
		}
		if bits != want {
			t.Errorf("%s: LowerBound %v (%#x), pinned %v (%#x)", name,
				math.Float64frombits(bits), bits, math.Float64frombits(want), want)
		}
	}
}
