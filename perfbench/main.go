// Command perfbench is the cmvrp benchmark: one seeded closed-loop workload
// per run, timed end to end and, in a separate traced run, per layer.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload spec-solve --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh --write-digest
//	bash perfbench/run.sh compare --ref HEAD~1
//
// A run generates every input from --seed, plays rounds of ops until
// --seconds have passed, checks every op's outputs and prints a report. Its
// last line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}, where metrics holds the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). A traced run measures in four quarters,
// untraced, traced, traced, untraced, and reports the difference as
// trace.overhead_frac. At the default seed every op's outputs must equal the
// records in digest.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the seed whose outputs digest.json pins.
const defaultSeed = 1

// minTail is the fewest op latencies a run must hold beyond its p90 for
// op_p90_ms to be trusted; a run with fewer is marked short.
const minTail = 10

// setupReps is how many times a run sets its workload up, each time from a
// freshly collected heap; setup_s is the median.
const setupReps = 25

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = runCompare(os.Args[2:], os.Stdout)
	} else {
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: spec-solve, broken-lp or failure-sweep")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	writeDigest := fs.Bool("write-digest", false, "regenerate "+digestPath+" at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeDigest {
		return writeReference(digestPath)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
}

// phase is one or more measured stretches of rounds.
type phase struct {
	lat               []float64 // per-op latency, ms
	rates             []float64 // throughput of each whole period, ops/s
	attempted, failed int
	failures          []string
	bytes, mallocs    uint64
	ep                episodeTally
}

// opsPerS is the median throughput over the phase's whole periods, which
// discounts stretches where the host was slow, and the number of periods.
func (p *phase) opsPerS() (float64, int) { return median(p.rates), len(p.rates) }

// add merges q into p.
func (p *phase) add(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.rates = append(p.rates, q.rates...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
	p.bytes += q.bytes
	p.mallocs += q.mallocs
	p.ep.add(&q.ep)
}

// measure plays rounds of s until budget has passed. Ops are checked
// against ref when it is non-nil.
func measure(s suite, budget time.Duration, t *tracer, ref []string, firstOp int) *phase {
	p := &phase{}
	var mu sync.Mutex
	var start time.Time
	var ends []time.Duration // op completion times since the start, in order
	done := func(i, id int, d time.Duration, r opResult) {
		err := r.err
		if err == nil && ref != nil {
			err = checkRecord(ref, i, r.rec)
		}
		mu.Lock()
		defer mu.Unlock()
		p.lat = append(p.lat, float64(d)/1e6)
		ends = append(ends, time.Since(start))
		p.attempted++
		if err != nil {
			p.failed++
			p.failures = append(p.failures, fmt.Sprintf("op %d: %v", id, err))
		}
		if r.ep != nil {
			p.ep.add(r.ep)
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	deadline := start.Add(budget)
	// The first round always starts, so a phase holds at least one op.
	for op := firstOp; op == firstOp || time.Now().Before(deadline); op += s.size() {
		s.round(t, op, deadline, done)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	period := s.period()
	prev := time.Duration(0)
	for end := period; end <= len(ends); end += period {
		p.rates = append(p.rates, float64(period)/(ends[end-1]-prev).Seconds())
		prev = ends[end-1]
	}
	if len(p.rates) == 0 { // shorter than one period: the plain average
		p.rates = []float64{float64(p.attempted) / wall.Seconds()}
	}
	return p
}

// metricDef describes one reported metric. moves names the end-to-end
// metric and workload a per-layer metric is expected to explain.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "op_p50_ms", unit: "ms", better: "lower"},
	{name: "op_p90_ms", unit: "ms", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
}

var perLayer = []metricDef{
	{"offline.dense_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"offline.omegac_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"offline.alg1_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"offline.schedule_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"offline.verify_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"lpchar.omegastar_ms", "ms", "lower", "op_p90_ms on spec-solve"},
	{"broken.lowerbound_ms", "ms", "lower", "ops_per_s and op_p50_ms on broken-lp"},
	{"broken.fig41_ms", "ms", "lower", "ops_per_s and op_p50_ms on broken-lp"},
	{"broken.alloc_mb_per_call", "MB", "lower", "alloc_mb_per_op on broken-lp"},
	{"broken.allocs_per_call", "count", "lower", "alloc_mb_per_op on broken-lp"},
	{"online.partition_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"online.partition_alloc_mb", "MB", "lower", "op_p50_ms on spec-solve"},
	{"online.won_ms", "ms", "lower", "op_p50_ms on spec-solve"},
	{"online.msgs_per_episode", "count", "lower", "op_p50_ms on failure-sweep"},
	{"online.searches_per_episode", "count", "lower", "op_p50_ms on failure-sweep"},
	{"online.replacements_per_episode", "count", "lower", "op_p50_ms on failure-sweep"},
	{"online.monitor_rescues_per_episode", "count", "lower", "op_p50_ms on failure-sweep"},
	{"online.evidence_rescues_per_episode", "count", "lower", "op_p50_ms on failure-sweep"},
	{"online.search_fail_ratio", "frac", "lower", "ok_frac on failure-sweep"},
	{"online.served_ratio", "frac", "higher", "ok_frac on failure-sweep"},
	{"online.episode_msgs_per_s", "1/s", "higher", "ops_per_s on failure-sweep"},
	{"sweep.episode_ms", "ms", "lower", "ops_per_s on failure-sweep"},
	{"sweep.worker_idle_frac", "frac", "lower", "ops_per_s on failure-sweep"},
	{"online.pool_reuse_ratio", "frac", "higher", "ops_per_s on failure-sweep"},
	{"trace.overhead_frac", "frac", "lower", "the gap between traced and untraced ops_per_s"},
}

// bench runs workload w once and prints the report.
func bench(w workload, seed int64, budget time.Duration, traced bool, out io.Writer) error {
	var ref []string
	if seed == defaultSeed {
		var err error
		if ref, err = reference(w.name); err != nil {
			return err
		}
	}
	var s suite
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = w.setup(seed); err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	if ref != nil && len(ref) != s.size() {
		return fmt.Errorf("digest.json holds %d %s records, the workload has %d ops; regenerate it with --write-digest",
			len(ref), w.name, s.size())
	}
	workers := 1
	if fsw, ok := s.(*failureSweep); ok {
		workers = fsw.workers
	}

	fmt.Fprintf(out, "# cmvrp benchmark: workload=%s seed=%d seconds=%g trace=%t\n",
		w.name, seed, budget.Seconds(), traced)
	hdr := header(w.name, seed, budget, traced, workers, s.size())
	fmt.Fprintf(out, "# host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s workers=%d ops_per_round=%d\n",
		hdr["host"], hdr["nproc"], hdr["gomaxprocs"], hdr["go"], hdr["commit"], workers, s.size())

	var phases []*phase
	metrics := map[string]float64{}
	samples := map[string]int{}
	if !traced {
		p := measure(s, budget, nil, ref, 0)
		phases = append(phases, p)
		opsN := p.attempted
		metrics["setup_s"] = median(setups)
		var periods int
		metrics["ops_per_s"], periods = p.opsPerS()
		metrics["op_p50_ms"] = percentile(p.lat, 50)
		metrics["op_p90_ms"] = percentile(p.lat, 90)
		metrics["ok_frac"] = float64(p.attempted-p.failed) / float64(p.attempted)
		metrics["alloc_mb_per_op"] = float64(p.bytes) / 1e6 / float64(opsN)
		metrics["allocs_per_op"] = float64(p.mallocs) / float64(opsN)
		samples["setup_s"] = setupReps
		samples["ops_per_s"] = periods
		for _, k := range []string{"op_p50_ms", "op_p90_ms", "ok_frac", "alloc_mb_per_op", "allocs_per_op"} {
			samples[k] = opsN
		}
		for _, d := range endToEnd {
			fmt.Fprintf(out, "%-22s %14.6g %-6s n=%d\n", d.name, metrics[d.name], d.unit, samples[d.name])
		}
		tail := 0
		for _, x := range p.lat {
			if x > metrics["op_p90_ms"] {
				tail++
			}
		}
		hdr["p90_tail"] = tail
		hdr["short"] = tail < minTail
		if tail < minTail {
			fmt.Fprintf(out, "# short run: %d op latencies lie beyond p90, fewer than %d\n", tail, minTail)
			fmt.Fprintf(os.Stderr, "perfbench: short run: %d op latencies lie beyond p90, fewer than %d; op_p90_ms is not trusted\n",
				tail, minTail)
		}
		fmt.Fprintf(out, "%-22s %14.6g %-6s (%d of %d ops failed)\n", "fail_frac",
			float64(p.failed)/float64(p.attempted), "frac", p.failed, p.attempted)
	} else {
		// Untraced and traced quarters in the order A B B A, so a steady
		// drift in host speed cancels out of trace.overhead_frac.
		plain, tp := &phase{}, &phase{}
		t := newTracer()
		firstOp := 0
		for _, on := range []bool{false, true, true, false} {
			var q *phase
			if on {
				q = measure(s, budget/4, t, ref, firstOp)
				tp.add(q)
			} else {
				q = measure(s, budget/4, nil, ref, firstOp)
				plain.add(q)
			}
			firstOp += q.attempted
		}
		phases = append(phases, plain, tp)
		layerMetrics(metrics, t.stats(), tp, workers)
		plainRate, _ := plain.opsPerS()
		tracedRate, _ := tp.opsPerS()
		metrics["trace.overhead_frac"] = plainRate/tracedRate - 1
		for _, d := range perLayer {
			samples[d.name] = tp.attempted
		}
		samples["trace.overhead_frac"] = plain.attempted + tp.attempted
		for _, d := range perLayer {
			fmt.Fprintf(out, "%-36s %14.6g %-6s -> %s\n", d.name, metrics[d.name], d.unit, d.moves)
		}
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.tsv", w.name, seed)
		if err := t.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(t.spans), path)
	}

	attempted, failed := 0, 0
	for _, p := range phases {
		attempted += p.attempted
		failed += p.failed
		for i, f := range p.failures {
			if i == 20 {
				fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed ops\n", len(p.failures)-i)
				break
			}
			fmt.Fprintln(os.Stderr, "perfbench: failed", f)
		}
	}
	hdr["samples"] = samples
	if err := printJSON(out, map[string]any{"report": hdr}); err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]value{}}
	for _, d := range defs {
		res.Metrics[d.name] = value{metrics[d.name], d.unit}
	}
	return printJSON(out, res)
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// spans and episode counters. Layers a workload does not call read 0.
func layerMetrics(m map[string]float64, st map[string]layerStat, p *phase, workers int) {
	for _, name := range []string{"offline.dense", "offline.omegac", "offline.alg1",
		"offline.schedule", "offline.verify", "lpchar.omegastar", "broken.lowerbound",
		"broken.fig41", "online.partition", "online.won"} {
		m[name+"_ms"] = st[name].selfMs()
	}
	perCall := func(x uint64, l layerStat) float64 {
		if l.calls == 0 {
			return 0
		}
		return float64(x) / float64(l.calls)
	}
	lb, part := st["broken.lowerbound"], st["online.partition"]
	m["broken.alloc_mb_per_call"] = perCall(lb.bytes, lb) / 1e6
	m["broken.allocs_per_call"] = perCall(lb.mallocs, lb)
	m["online.partition_alloc_mb"] = perCall(part.bytes, part) / 1e6

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ep := p.ep
	m["online.msgs_per_episode"] = ratio(ep.messages, ep.episodes)
	m["online.searches_per_episode"] = ratio(ep.searches, ep.episodes)
	m["online.replacements_per_episode"] = ratio(ep.replacements, ep.episodes)
	m["online.monitor_rescues_per_episode"] = ratio(ep.monitorRescues, ep.episodes)
	m["online.evidence_rescues_per_episode"] = ratio(ep.evRescues, ep.episodes)
	m["online.search_fail_ratio"] = ratio(ep.searchFails, ep.searches)
	m["online.served_ratio"] = ratio(ep.served, ep.arrivals)
	m["online.pool_reuse_ratio"] = ratio(ep.resets, ep.builds+ep.resets)
	episodes, rounds := st["sweep.episode"], st["sweep.round"]
	if episodes.totalNs > 0 {
		m["online.episode_msgs_per_s"] = float64(ep.messages) / (float64(episodes.totalNs) / 1e9)
		m["sweep.episode_ms"] = episodes.selfMs()
	}
	if rounds.totalNs > 0 {
		m["sweep.worker_idle_frac"] = 1 - float64(episodes.totalNs)/float64(int64(workers)*rounds.totalNs)
	}
}

// header describes the host and the run.
func header(name string, seed int64, budget time.Duration, traced bool, workers, roundOps int) map[string]any {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	// The build stamps the commit only when it runs inside a git checkout.
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	commit += modified
	return map[string]any{
		"workload": name, "seed": seed, "seconds": budget.Seconds(), "trace": traced,
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "workers": workers,
		"ops_per_round": roundOps,
	}
}

func printJSON(out io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// writeReference plays one round of every workload at the default seed and
// writes the ops' records as the reference digest.
func writeReference(path string) error {
	all := map[string][]string{}
	for _, w := range workloads {
		s, err := w.setup(defaultSeed)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		recs := make([]string, s.size())
		var errs []string
		var mu sync.Mutex
		s.round(nil, 0, time.Time{}, func(i, _ int, _ time.Duration, r opResult) {
			mu.Lock()
			defer mu.Unlock()
			recs[i] = r.rec
			if r.err != nil {
				errs = append(errs, fmt.Sprintf("%s op %d: %v", w.name, i, r.err))
			}
		})
		if len(errs) > 0 {
			sort.Strings(errs)
			return fmt.Errorf("ops failed, digest not written:\n%s", strings.Join(errs, "\n"))
		}
		all[w.name] = recs
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
