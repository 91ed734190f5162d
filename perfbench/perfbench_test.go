package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(append([]float64(nil), c.xs...))
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// fingerprint prints every generated input of a suite.
func fingerprint(s suite) string {
	var b strings.Builder
	switch s := s.(type) {
	case *specSolve:
		for _, sp := range s.specs {
			fmt.Fprintln(&b, sp.label, sp.simSeed)
			for _, p := range sp.m.Support() {
				fmt.Fprint(&b, p, sp.m.At(p), " ")
			}
		}
	case *brokenLP:
		for _, in := range s.insts {
			fmt.Fprintln(&b, in.label, in.lon.Override)
			for _, p := range in.m.Support() {
				fmt.Fprint(&b, p, in.m.At(p), " ")
			}
		}
	case *failureSweep:
		for _, sc := range s.scenarios {
			fmt.Fprintln(&b, sc.label, sc.opts.Seed, sc.seq.Positions(), *sc.opts.Failure)
		}
	}
	return b.String()
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.setup(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.setup(8)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := fingerprint(a), fingerprint(b); fa != fb || fa == "" {
			t.Errorf("%s: two set-ups at one seed differ", w.name)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
		if a.size()%a.period() != 0 {
			t.Errorf("%s: round of %d ops is not a whole number of %d-op periods", w.name, a.size(), a.period())
		}
	}
}

func TestDigestCatchesPerturbedResult(t *testing.T) {
	ref, err := reference("spec-solve")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSpecSolve(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	sp := s.(*specSolve).specs[0]
	rec, err := s.(*specSolve).solve(sp, nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecord(ref, 0, rec); err != nil {
		t.Fatalf("unperturbed op 0: %v", err)
	}
	perturbed := strings.Replace(rec, "won=", "won=1", 1)
	if err := checkRecord(ref, 0, perturbed); err == nil {
		t.Fatal("a perturbed Won passed the digest check")
	}

	// A run against a reference that disagrees counts the op as failed.
	bad := append([]string(nil), ref...)
	bad[0] = perturbed
	p := measure(s, time.Nanosecond, nil, bad, 0)
	if p.attempted != 1 || p.failed != 1 || len(p.failures) != 1 {
		t.Fatalf("attempted %d, failed %d, failures %q; want op 0 counted as failed",
			p.attempted, p.failed, p.failures)
	}
}

func TestJudge(t *testing.T) {
	const bound = 0.1
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"faster latency", base, scaled(0.8), false, "improved"},
		{"higher throughput", base, scaled(1.2), true, "improved"},
		{"same", base, scaled(1.0), false, "no-worse"},
		{"slightly slower", base, scaled(1.05), false, "no-worse"},
		{"slower latency", base, scaled(1.3), false, "worse"},
		{"lower throughput", base, scaled(0.7), true, "worse"},
		{"noisy parent", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, scaled(1.0), false, "unresolved"},
		{"noisy parent, change beats every run", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, scaled(0.4), false, "no-worse"},
	} {
		if got := judge(c.a, c.b, c.higher, bound); got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d, A %v, B %v), want %q",
				c.name, got.verdict, got.wins, got.a, got.b, c.want)
		}
	}
}

// A change that fails more ops than its parent gets no gain counted, and
// its ok_frac reads worse even when the medians agree.
func TestFailedMoreWithdrawsGains(t *testing.T) {
	for _, c := range []struct{ metric, verdict, want string }{
		{"ops_per_s", "improved", "not counted: more failed ops"},
		{"op_p50_ms", "no-worse", "no-worse"},
		{"op_p90_ms", "worse", "worse"},
		{"ok_frac", "no-worse", "worse"},
		{"ok_frac", "improved", "worse"},
	} {
		if got := failedMore(c.metric, c.verdict); got != c.want {
			t.Errorf("failedMore(%s, %s) = %q, want %q", c.metric, c.verdict, got, c.want)
		}
	}
}

// ok_frac's bound must be tighter than one failed op in a run of the
// busiest workload, so a single failure per run reads worse.
func TestOkFracBoundCatchesOneFailure(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	const maxOpsPerRun = 50000
	for _, m := range cfg.EndToEnd {
		if m.Name == "ok_frac" && !(m.Bound < 1.0/maxOpsPerRun) {
			t.Errorf("ok_frac bound %g lets one failed op in %d pass", m.Bound, maxOpsPerRun)
		}
	}
}

// BENCHMARK.json must list exactly the workloads and metrics a run prints.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var cfg struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []def
		code []metricDef
	}{{"end_to_end", cfg.EndToEnd, endToEnd}, {"per_layer", cfg.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i, d := range c.json {
			m := c.code[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %s %s %s", c.kind, i, d, m.name, m.unit, m.better)
			}
		}
	}
}

// A traced sweep round records one span per episode under the round's span
// from both workers, and its episodes fill the per-layer counters.
func TestTracedSweepRound(t *testing.T) {
	s, err := newFailureSweep(3)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.(*failureSweep)
	fs.scenarios = fs.scenarios[:8]
	tr := newTracer()
	p := measure(fs, time.Nanosecond, tr, nil, 0)
	if p.attempted != 8 || p.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want one round of 8 episodes", p.attempted, p.failed)
	}
	st := tr.stats()
	if st["sweep.round"].calls != 1 || st["sweep.episode"].calls != 8 {
		t.Fatalf("spans: %d rounds, %d episodes; want 1 and 8", st["sweep.round"].calls, st["sweep.episode"].calls)
	}
	m := map[string]float64{}
	layerMetrics(m, st, p, fs.workers)
	if m["online.msgs_per_episode"] <= 0 || m["sweep.episode_ms"] <= 0 {
		t.Errorf("per-layer metrics not filled: %v", m)
	}
	if got := m["online.pool_reuse_ratio"]; got < 0.5 || got >= 1 {
		t.Errorf("pool reuse ratio %v; want some resets after each worker's first build", got)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	spans := []span{{start: 0, end: 10}, {start: 5, end: 15}, {start: 20, end: 25}}
	if got := covered(spans, []int{0, 1, 2}); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
}
