package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share op; parent is the index of
// the enclosing span, or -1. Allocation deltas are filled only for spans
// opened with beginMem.
type span struct {
	name       string
	op, parent int
	start, end int64 // nanoseconds since the tracer started
	mem        bool
	bytes      uint64
	mallocs    uint64
}

// tracer keeps spans in memory for the length of a traced run. A nil
// *tracer records nothing, so untraced runs pay one nil check per call
// site. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when t is nil).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent,
		start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// beginMem opens a span that also records the process's heap allocation
// during it. The memory statistics are read outside the timed interval, and
// only serial workloads use it: concurrent ops would be counted too.
func (t *tracer) beginMem(name string, op, parent int) (int, runtime.MemStats) {
	var ms runtime.MemStats
	if t == nil {
		return -1, ms
	}
	runtime.ReadMemStats(&ms)
	return t.begin(name, op, parent), ms
}

// endMem closes a span opened by beginMem.
func (t *tracer) endMem(id int, before runtime.MemStats) {
	if t == nil {
		return
	}
	t.end(id)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	s := &t.spans[id]
	s.mem = true
	s.bytes = after.TotalAlloc - before.TotalAlloc
	s.mallocs = after.Mallocs - before.Mallocs
	t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls   int
	totalNs int64 // sum of durations
	selfNs  int64 // sum of durations minus the time covered by children
	bytes   uint64
	mallocs uint64
}

// selfMs is the mean self time per call.
func (l layerStat) selfMs() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.selfNs) / 1e6 / float64(l.calls)
}

// stats aggregates the recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals, so children that
// overlap (episodes played by parallel workers) are not subtracted twice.
func (t *tracer) stats() map[string]layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]layerStat)
	for i, s := range t.spans {
		dur := s.end - s.start
		st := out[s.name]
		st.calls++
		st.totalNs += dur
		st.selfNs += dur - covered(t.spans, children[i])
		st.bytes += s.bytes
		st.mallocs += s.mallocs
		out[s.name] = st
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for k, id := range ids {
		iv[k] = [2]int64{spans[id].start, spans[id].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// write stores the spans as tab-separated lines: name, op, parent, start
// and end in nanoseconds, and allocated bytes and objects (empty when not
// recorded).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tparent\tstart_ns\tend_ns\talloc_bytes\tallocs")
	t.mu.Lock()
	for _, s := range t.spans {
		bytes, mallocs := "", ""
		if s.mem {
			bytes, mallocs = fmt.Sprint(s.bytes), fmt.Sprint(s.mallocs)
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%s\n",
			s.name, s.op, s.parent, s.start, s.end, bytes, mallocs)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
