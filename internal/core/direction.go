package core

import (
	"sync"
	"sync/atomic"

	"hetgraph/internal/fault"
	"hetgraph/internal/frontier"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/sched"
)

// PullerF32 is optionally implemented by AppF32 programs that support
// pull/bottom-up traversal. In a pull superstep the engine does not insert
// local messages at all: the process phase scans each candidate vertex's
// in-edges and computes, via PullFrom, exactly the message each frontier
// parent would have pushed. The multiset of contributions a vertex sees is
// therefore identical to the push schedule's, which is what makes push,
// pull, and auto byte-equivalent for min-style reductions (the oracle
// tests assert this against internal/seqref).
type PullerF32 interface {
	// PullTarget reports whether v can still be influenced this superstep
	// and should have its in-edges scanned (BFS: unvisited vertices; SSSP:
	// every vertex, since any distance may yet improve).
	PullTarget(v graph.VertexID) bool
	// PullFrom returns the message a frontier parent u would have pushed
	// along the edge u→v with weight w (0 on unweighted graphs).
	PullFrom(u graph.VertexID, w float32) float32
	// PullEarlyExit reports whether a single contribution decides the
	// reduced result, letting the sweep stop at the first frontier parent
	// (BFS: every frontier member offers the same level+1).
	PullEarlyExit() bool
}

// OrderSensitiveReduction is optionally implemented by AppF32 programs
// whose ReduceScalar is not exactly associative — float32 summation, where
// (a+b)+c and a+(b+c) differ in the last bit. The engine then canonicalizes
// every reduction order: CSB lanes are sorted ascending before folding, and
// the remote combiner buffers duplicates and folds them in sorted order at
// drain (comm.SortingCombiner). Repeated and crash-resumed runs of such
// apps produce byte-identical vertex state.
type OrderSensitiveReduction interface {
	OrderSensitiveReduction() bool
}

// IsOrderSensitive reports whether app declares an order-sensitive
// reduction.
func IsOrderSensitive(app any) bool {
	o, ok := app.(OrderSensitiveReduction)
	return ok && o.OrderSensitiveReduction()
}

// directionState is one device's direction-optimizing machinery: the
// transposed graph for in-edge scans, bitmap frontiers with popcount
// occupancy, the unexplored-edge estimate behind the auto heuristic, and
// scratch for merging remote deliveries into the pull sweep. It is nil on
// devices running a push-only app (or Options.Direction == DirectionPush),
// which keeps the push hot path untouched.
type directionState struct {
	puller PullerF32
	// tg is the transposed CSR: tg.Neighbors(v) are the sources of v's
	// in-edges, weights preserved and aligned.
	tg       *graph.CSR
	weighted bool
	// frontier holds the current superstep's active set.
	frontier *frontier.Bitmap
	// everActive marks vertices that have been active at least once;
	// unexplored is the summed out-degree of local vertices not yet in it
	// (the m_u of the push→pull heuristic). Seeded from PullTarget on the
	// first superstep so a resumed or rejoined device reconstructs the
	// estimate from app state rather than lost history.
	everActive *frontier.Bitmap
	unexplored int64
	// nLocal is the number of vertices this device owns.
	nLocal int
	// frontierEdges is the summed out-degree of the current frontier (m_f).
	frontierEdges int64
	// mode is the resolved direction of the current superstep; push or
	// pull, never auto.
	mode   Direction
	seeded bool
	// has/vals scatter the CSB's reduced remote deliveries so the sweep can
	// fold them with pulled contributions per destination.
	has  []bool
	vals []float32
}

// newDirectionState builds the pull machinery for one device over tg, g's
// transpose. One transpose serves the whole device group (see
// pullTranspose): every rank holds the full CSR already, and the in-edge
// structure must cover remote parents too (they are skipped during the
// sweep but present in the adjacency).
func newDirectionState(p PullerF32, g, tg *graph.CSR, rank int, assign []int32) *directionState {
	n := g.NumVertices()
	ds := &directionState{
		puller:     p,
		tg:         tg,
		weighted:   g.Weighted(),
		frontier:   frontier.NewBitmap(n),
		everActive: frontier.NewBitmap(n),
		has:        make([]bool, n),
		vals:       make([]float32, n),
	}
	for v := 0; v < n; v++ {
		if assign == nil || assign[v] == int32(rank) {
			ds.nLocal++
			ds.unexplored += int64(g.OutDegree(graph.VertexID(v)))
		}
	}
	return ds
}

// decide resolves the superstep's direction from the active set and the
// configured policy, and refreshes the frontier bitmap and unexplored-edge
// estimate. Called once per superstep at generate entry; per-rank decisions
// in a device group are autonomous (cut-edge influence always travels as
// messages, so a push rank and a pull rank interoperate within one
// superstep).
func (d *deviceF32) decideDirection(active []graph.VertexID) {
	ds := d.din
	if !ds.seeded {
		// Reconstruct the unexplored estimate from app state: vertices that
		// are no longer pull targets have been explored (exact for BFS's
		// visited set; a no-op for SSSP's always-true targets).
		for v := 0; v < d.g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			if d.local(vid) && !ds.puller.PullTarget(vid) && !ds.everActive.Has(vid) {
				ds.everActive.Set(vid)
				ds.unexplored -= int64(d.g.OutDegree(vid))
			}
		}
		ds.seeded = true
	}
	ds.frontier.ClearAll()
	ds.frontierEdges = 0
	for _, v := range active {
		ds.frontier.Set(v)
		ds.frontierEdges += int64(d.g.OutDegree(v))
		if !ds.everActive.Has(v) {
			ds.everActive.Set(v)
			ds.unexplored -= int64(d.g.OutDegree(v))
		}
	}
	switch d.opt.Direction {
	case DirectionPull:
		ds.mode = DirectionPull
	case DirectionAuto:
		unexplored := ds.unexplored
		if unexplored < 0 {
			unexplored = 0
		}
		if ds.mode == DirectionPull {
			// Hysteresis: stay bottom-up until the frontier thins out.
			if float64(ds.frontier.Count()) < float64(ds.nLocal)/d.opt.PullBeta {
				ds.mode = DirectionPush
			}
		} else if float64(ds.frontierEdges) > float64(unexplored)/d.opt.PullAlpha {
			ds.mode = DirectionPull
		}
	default:
		ds.mode = DirectionPush
	}
}

// direction returns the label recorded on this superstep's metrics/trace
// samples ("push"/"pull"), or "" for direction-less apps.
func (d *deviceF32) direction() string {
	if d.din == nil {
		return ""
	}
	return d.din.mode.String()
}

// generatePull is the generate phase of a pull superstep: local
// destinations receive nothing (the sweep reads parent state directly in
// process), so only cut edges — out-edges crossing to another rank — emit,
// through the app's own Generate filtered to remote destinations. A
// single-device run and a group with no live peers (a lone survivor) skip
// the walk entirely.
func (d *deviceF32) generatePull(active []graph.VertexID, c *machine.Counters) error {
	c.ActiveVertices += int64(len(active))
	c.PullSupersteps++
	c.Steps++
	if d.assign == nil || d.ep == nil || d.ep.NumLivePeers() == 0 {
		return nil
	}
	gen := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		d.maybePanic(fault.PhaseGenerate)
		d.app.Generate(v, func(dst graph.VertexID, val float32) {
			if !d.local(dst) {
				emit(dst, val)
			}
		})
	}
	// Cut messages are a small fraction of the frontier's edges, so the
	// locking scheme's direct path is right regardless of the configured
	// scheme — there is no local insert traffic to pipeline.
	st, err := pipeline.RunLocking(active, d.opt.Threads, gen, d.route)
	if err != nil {
		return err
	}
	// The walk visits every frontier out-edge to find the cut ones, even
	// though only the cut edges message.
	c.EdgesTraversed += d.din.frontierEdges
	c.Messages += st.Messages
	c.TaskFetches += st.TaskFetches
	c.RemoteMessages += d.remCount.Swap(0)
	return nil
}

// processPull is the process phase of a pull superstep. Remote (cut-edge)
// contributions arrived as ordinary messages and are reduced off the CSB
// first, then scattered per destination; the bottom-up sweep walks every
// local pull target's in-edges, folds frontier parents' contributions via
// PullFrom/ReduceScalar, merges the remote value, and emits at most one
// delivery per vertex — exactly the delivery the push schedule would have
// produced.
func (d *deviceF32) processPull(c *machine.Counters) ([]delivery, error) {
	remote, err := d.processPush(c)
	if err != nil {
		return nil, err
	}
	ds := d.din
	for _, dl := range remote {
		ds.has[dl.v] = true
		ds.vals[dl.v] = dl.val
	}
	n := int64(d.g.NumVertices())
	s, err := sched.New(n, sched.ChunkFor(n, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	earlyExit := ds.puller.PullEarlyExit()
	perThread := make([][]delivery, d.opt.Threads)
	var scanned atomic.Int64
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			var out []delivery
			var localScanned int64
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					v := graph.VertexID(i)
					if !d.local(v) {
						continue
					}
					acc, hasAcc := ds.vals[v], ds.has[v]
					if ds.puller.PullTarget(v) {
						nb := ds.tg.Neighbors(v)
						var ws []float32
						if ds.weighted {
							ws = ds.tg.EdgeWeights(v)
						}
						for j, u := range nb {
							localScanned++
							if !d.local(u) || !ds.frontier.Has(u) {
								continue
							}
							var w float32
							if ws != nil {
								w = ws[j]
							}
							val := ds.puller.PullFrom(u, w)
							if hasAcc {
								acc = d.app.ReduceScalar(acc, val)
							} else {
								acc, hasAcc = val, true
							}
							if earlyExit {
								break
							}
						}
					}
					if hasAcc {
						out = append(out, delivery{v, acc})
					}
				}
			}
			perThread[t] = out
			scanned.Add(localScanned)
		}(t)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return nil, err
	}
	// Reset the scatter scratch for the next superstep.
	for _, dl := range remote {
		ds.has[dl.v] = false
		ds.vals[dl.v] = 0
	}
	var total int
	for _, out := range perThread {
		total += len(out)
	}
	deliveries := make([]delivery, 0, total)
	for _, out := range perThread {
		deliveries = append(deliveries, out...)
	}
	c.PullEdgesScanned += scanned.Load()
	c.TaskFetches += s.Fetches()
	c.Steps++
	return deliveries, nil
}
