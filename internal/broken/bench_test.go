package broken

import "testing"

// BenchmarkLowerBound times LP (4.1) on a generated 32x32, 400-job instance
// with longevity overrides on about a tenth of the box.
func BenchmarkLowerBound(b *testing.B) {
	in := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LowerBound(in.m, in.lon); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig41LPBound times the Figure 4.1 scenario at r1 = 16 (r2 = 8*r1,
// as E9 runs it), construction included.
func BenchmarkFig41LPBound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := NewFig41(16, 128)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.LPBound(); err != nil {
			b.Fatal(err)
		}
	}
}

// lowerBoundAllocBudget caps LowerBound's allocations on the benchmark
// instance. The point-keyed construction it replaced made ~56k per call here
// (a map, a network and a supplier list per probe); the weighted probe
// allocates only when its index grows.
const lowerBoundAllocBudget = 300

func TestLowerBoundAllocs(t *testing.T) {
	in := benchInstance(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LowerBound(in.m, in.lon); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > lowerBoundAllocBudget {
		t.Errorf("LowerBound made %v allocs per call, budget %d", allocs, lowerBoundAllocBudget)
	}
}
