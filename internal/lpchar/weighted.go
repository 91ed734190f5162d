package lpchar

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/demand"
	"repro/internal/flow"
	"repro/internal/grid"
)

// weightedOmegaCap bounds WeightedProbe.Value's doubling search: past it the
// instance is reported infeasible (no vehicle with positive weight near the
// demand).
const weightedOmegaCap = 1e12

// WeightedProbe answers feasibility probes of LP (4.1), Theorem 4.1.1's
// program for fleets that break down: LP (2.1) where the vehicle at i has a
// weight w_i in [0, maxW] and supplies at most w_i*omega within radius
// w_i*omega. It runs on the same core as Solver: the supply index, the
// cached ball offsets, the feasibility slack and bisection constants, and
// one flow network rebuilt in place through Reinit.
//
// Each probe builds exactly the graph the point-keyed construction builds,
// edge for edge, so its max-flow value — not just its verdict — is the
// same float: suppliers are the positive-weight points in the discovery
// order of the radius-r index, r = floor(maxW*omega) (sorted support x
// row-major ball), each with source capacity w_i*omega; each demand in
// support order gets its sink edge, then its arcs from the suppliers that
// reach it, float64(dist) <= w_i*omega, in supplier order.
//
// The index is built at the largest radius probed so far and rebuilt only
// when a probe needs a larger one. A rebuild densifies the weights by
// supplier id (one weight lookup per supplier) and records, per support
// point, its positive-weight suppliers in row-major ball order. A probe then
// walks those lists alone: no point-keyed lookup, no allocation once warm.
// The graph itself is rebuilt per probe rather than re-capacitated, because
// an arc's existence depends on omega through its reach; breakpoint reuse
// and retained-cut certificates (Solver's incremental machinery) are left
// out, since either would change the augmentation order the parity rests on.
// A WeightedProbe is not safe for concurrent use.
type WeightedProbe struct {
	m       *demand.Map
	total   float64
	weight  func(grid.Point) float64
	maxW    float64
	support []grid.Point
	dem     []float64 // dem[j] = d(support[j])

	// Built at radius idxR (-1 before the first probe): the supply index,
	// w[id] = weight of supplier id, and per support point j the
	// positive-weight suppliers within idxR in row-major ball order,
	// cand[start[j]:start[j+1]], at L1 distance candDist[k].
	idxR     int
	sup      supplyIndex
	w        []float64
	cand     []int32
	candDist []int32
	start    []int32

	// Per-probe scratch: node[id] is supplier id's network node (0 when id
	// is no supplier at this probe), order lists suppliers by node.
	node  []int32
	order []int32
	arcs  []int32
	nw    *flow.Network
}

// NewWeightedProbe prepares LP (4.1) probes on m with per-vehicle weights
// weight(p), each in [0, maxW]. weight is called once per lattice point
// within the probed radius of the support each time the index grows —
// never per probe.
func NewWeightedProbe(m *demand.Map, weight func(grid.Point) float64, maxW float64) (*WeightedProbe, error) {
	if !(maxW >= 0) || math.IsInf(maxW, 1) {
		return nil, fmt.Errorf("lpchar: max weight %v must be finite and >= 0", maxW)
	}
	wp := &WeightedProbe{m: m, total: float64(m.Total()), weight: weight, maxW: maxW, idxR: -1}
	wp.support = m.Support()
	wp.dem = make([]float64, len(wp.support))
	for j, q := range wp.support {
		wp.dem[j] = float64(m.At(q))
	}
	return wp, nil
}

// grow rebuilds the index at radius r. A failed rebuild leaves idxR at -1,
// so the next probe rebuilds rather than reading a half-built index.
func (wp *WeightedProbe) grow(r int) error {
	wp.idxR = -1
	if err := wp.sup.build(wp.m, r, wp.support); err != nil {
		return err
	}
	sups := wp.sup.suppliers
	wp.w = slices.Grow(wp.w[:0], len(sups))[:len(sups)]
	for id, p := range sups {
		v := wp.weight(p)
		if !(v >= 0 && v <= wp.maxW) {
			return fmt.Errorf("lpchar: weight %v at %v outside [0,%v]", v, p, wp.maxW)
		}
		wp.w[id] = v
	}
	deltas, err := wp.sup.ballOffsets(wp.m.Dim(), r)
	if err != nil {
		return err
	}
	var zero grid.Point
	wp.cand, wp.candDist, wp.start = wp.cand[:0], wp.candDist[:0], wp.start[:0]
	for _, s := range wp.support {
		wp.start = append(wp.start, int32(len(wp.cand)))
		for _, d := range deltas {
			if id := wp.sup.supplierAt(s.Add(d)); wp.w[id] > 0 {
				wp.cand = append(wp.cand, id)
				wp.candDist = append(wp.candDist, int32(grid.Manhattan(d, zero)))
			}
		}
	}
	wp.start = append(wp.start, int32(len(wp.cand)))
	wp.node = slices.Grow(wp.node[:0], len(sups))[:len(sups)]
	clear(wp.node)
	wp.idxR = r
	return nil
}

// FeasibleAt reports whether capacity omega satisfies LP (4.1): the max
// flow of the probe graph saturates the total demand within the shared
// feasibility slack.
func (wp *WeightedProbe) FeasibleAt(omega float64) (bool, error) {
	if wp.total == 0 {
		return true, nil
	}
	if omega <= 0 {
		return false, nil
	}
	if math.IsNaN(omega) || math.IsInf(omega, 1) {
		return false, fmt.Errorf("lpchar: capacity %v is not finite", omega)
	}
	val, err := wp.maxFlow(omega)
	if err != nil {
		return false, err
	}
	return saturates(val, wp.total), nil
}

// maxFlow builds the probe graph at omega > 0 and returns its max flow.
func (wp *WeightedProbe) maxFlow(omega float64) (float64, error) {
	r := int(math.Floor(wp.maxW * omega))
	if r > wp.idxR {
		if err := wp.grow(r); err != nil {
			return 0, err
		}
	}
	// Suppliers: first discovery in sorted support x row-major ball(r),
	// positive weights only (cand holds nothing else).
	wp.order = wp.order[:0]
	for j := range wp.support {
		for k := wp.start[j]; k < wp.start[j+1]; k++ {
			if id := wp.cand[k]; int(wp.candDist[k]) <= r && wp.node[id] == 0 {
				wp.order = append(wp.order, id)
				wp.node[id] = int32(len(wp.order))
			}
		}
	}
	// Clear the stamps however the build below ends.
	defer func() {
		for _, id := range wp.order {
			wp.node[id] = 0
		}
	}()
	n := 2 + len(wp.order) + len(wp.support)
	if wp.nw == nil {
		nw, err := flow.NewNetwork(n)
		if err != nil {
			return 0, err
		}
		wp.nw = nw
	} else if err := wp.nw.Reinit(n); err != nil {
		return 0, err
	}
	src, sink := 0, n-1
	for i, id := range wp.order {
		if _, err := wp.nw.AddEdge(src, 1+i, wp.w[id]*omega); err != nil {
			return 0, err
		}
	}
	demBase := 1 + len(wp.order)
	for j := range wp.support {
		dj := demBase + j
		if _, err := wp.nw.AddEdge(dj, sink, wp.dem[j]); err != nil {
			return 0, err
		}
		// The reach test implies dist <= r: dist is an integer no larger
		// than w_i*omega <= maxW*omega.
		wp.arcs = wp.arcs[:0]
		for k := wp.start[j]; k < wp.start[j+1]; k++ {
			if id := wp.cand[k]; float64(wp.candDist[k]) <= wp.w[id]*omega {
				wp.arcs = append(wp.arcs, wp.node[id])
			}
		}
		slices.Sort(wp.arcs)
		for _, v := range wp.arcs {
			if _, err := wp.nw.AddEdge(int(v), dj, math.Inf(1)); err != nil {
				return 0, err
			}
		}
	}
	return wp.nw.MaxFlow(src, sink)
}

// Value computes the value of LP (4.1): omega doubles from 1 until a probe
// is feasible, then bisection closes [0, hi] under the bisection constants
// Solver.Value uses. ok is false when no omega up to 1e12 is feasible — no
// vehicle with positive weight can reach the demand.
func (wp *WeightedProbe) Value() (omega float64, ok bool, err error) {
	if wp.total == 0 {
		return 0, true, nil
	}
	hi := 1.0
	for {
		feasible, err := wp.FeasibleAt(hi)
		if err != nil {
			return 0, false, err
		}
		if feasible {
			break
		}
		hi *= 2
		if hi > weightedOmegaCap {
			return 0, false, nil
		}
	}
	lo := 0.0
	for iter := 0; iter < bisectMaxIters && hi-lo > bisectTolRel*math.Max(1, hi); iter++ {
		mid := (lo + hi) / 2
		feasible, err := wp.FeasibleAt(mid)
		if err != nil {
			return 0, false, err
		}
		if feasible {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
