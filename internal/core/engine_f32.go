package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetgraph/internal/comm"
	"hetgraph/internal/csb"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/sched"
)

// delivery is one reduced message ready for vertex updating.
type delivery struct {
	v   graph.VertexID
	val float32
}

// deviceF32 is one device's engine state for a float32-message application.
// For single-device runs assign and ep are nil; for heterogeneous runs
// assign maps each vertex to its owner rank and ep connects to the group's
// interconnect.
type deviceF32 struct {
	rankBase
	app AppF32
	buf *csb.Buffer
	ep  *comm.Endpoint[float32]

	remote remoteCombinerF32
	pipe   *pipeline.Pipelined[float32]

	// din holds the direction-optimizing state (transpose, bitmap
	// frontiers, switch heuristic); nil for push-only configurations, which
	// keeps the original hot path branch-free beyond one nil check.
	din *directionState
	// sortLanes canonicalizes reduction order for order-sensitive apps
	// (float32 sums): each CSB lane is sorted ascending before folding, so
	// repeated runs reduce identical multisets in identical order.
	sortLanes bool
}

// remoteCombinerF32 is the remote message buffer contract the engine needs:
// the eager comm.Combiner for exactly-associative reductions, or the
// order-canonicalizing comm.SortingCombiner for order-sensitive ones.
type remoteCombinerF32 interface {
	Add(dst graph.VertexID, v float32)
	DrainRouted(out [][]comm.Msg[float32], rankOf func(graph.VertexID) int) [][]comm.Msg[float32]
	Len() int
}

// newDeviceF32 builds one device's engine. tg is g's transpose, shared
// read-only by every device of the run; it is consulted only when the device
// may pull (see pullTranspose), and nil otherwise. The pipelined engine comes
// from the process-wide pool: callers hand it back with release once the
// device's goroutine has returned.
func newDeviceF32(app AppF32, g, tg *graph.CSR, opt Options, rank int, assign []int32, ep *comm.Endpoint[float32]) (*deviceF32, error) {
	d := &deviceF32{app: app, ep: ep, sortLanes: IsOrderSensitive(app)}
	if err := d.init(g, opt, app.Profile(), rank, assign); err != nil {
		return nil, err
	}
	if ep != nil {
		d.ctl = ep
	}
	var err error
	d.buf, err = csb.Build(g, csb.Config{
		Width:    d.opt.Dev.SIMDWidth,
		K:        d.opt.K,
		Identity: app.Identity(),
		Mode:     d.opt.CSBMode,
	})
	if err != nil {
		return nil, err
	}
	if assign != nil {
		if d.sortLanes {
			d.remote = comm.NewSortingCombiner[float32](g.NumVertices(), app.ReduceScalar)
		} else {
			d.remote = comm.NewCombiner(g.NumVertices(), app.ReduceScalar)
		}
	}
	if d.opt.Direction != DirectionPush {
		if p, ok := app.(PullerF32); ok {
			d.din = newDirectionState(p, g, tg, rank, assign)
		} else if d.opt.Direction == DirectionPull {
			return nil, &InvalidOptionsError{Field: "Direction", Reason: fmt.Sprintf("pull requires the application to implement core.PullerF32; %T does not (auto falls back to push)", app)}
		}
	}
	if d.opt.Scheme == SchemePipelined {
		d.pipe, err = pipeline.Acquire[float32](d.opt.Workers, d.opt.Movers, d.opt.GenBatchSize)
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// pullTranspose returns g's transpose when app can pull and some option asks
// for a direction other than push, nil otherwise. A run builds it once and
// every device's pull sweep reads it; nothing writes it.
func pullTranspose(app AppF32, g *graph.CSR, opts ...Options) *graph.CSR {
	if _, ok := app.(PullerF32); !ok {
		return nil
	}
	for _, o := range opts {
		if o.Direction != DirectionPush {
			return g.Transpose()
		}
	}
	return nil
}

// release returns the device's pipelined engine to the pool. Call it only
// after the device's goroutine has returned, and never for a convicted or
// fenced rank's device (its engine is left to the GC).
func (d *deviceF32) release() {
	if d != nil && d.pipe != nil {
		d.pipe.Release()
		d.pipe = nil
	}
}

// route is the locking-scheme emit target: local messages enter the CSB
// through its synchronized insert, remote ones accumulate in the combiner.
func (d *deviceF32) route(dst graph.VertexID, val float32) {
	if d.local(dst) {
		d.buf.Insert(dst, val)
		return
	}
	d.remoteMu.Lock()
	d.remote.Add(dst, val)
	d.remoteMu.Unlock()
	d.remCount.Add(1)
}

// routeOwnedBatch is the pipelined-scheme sink: the calling mover is the
// unique owner of every destination in the batch, so local runs go through
// the CSB's lock-free batch insert. The remote combiner is shared across
// movers and keeps its mutex (remote messages are rare relative to local
// ones for any sensible partition).
func (d *deviceF32) routeOwnedBatch(dsts []graph.VertexID, vals []float32) {
	for i := 0; i < len(dsts); {
		if d.local(dsts[i]) {
			j := i + 1
			for j < len(dsts) && d.local(dsts[j]) {
				j++
			}
			d.buf.InsertOwnedBatch(dsts[i:j], vals[i:j])
			i = j
			continue
		}
		d.remoteMu.Lock()
		d.remote.Add(dsts[i], vals[i])
		d.remoteMu.Unlock()
		d.remCount.Add(1)
		i++
	}
}

// generate runs the superstep's generate phase: it resolves the traversal
// direction (when the app supports pulling), then either runs the
// configured message-generation scheme (push) or emits only cut-edge
// messages (pull; see generatePull).
func (d *deviceF32) generate(active []graph.VertexID, c *machine.Counters) error {
	if d.din != nil {
		d.decideDirection(active)
		if d.din.mode == DirectionPull {
			return d.generatePull(active, c)
		}
	}
	gen := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		d.maybePanic(fault.PhaseGenerate)
		d.app.Generate(v, emit)
	}
	var st pipeline.Stats
	var err error
	switch d.opt.Scheme {
	case SchemeLocking:
		st, err = pipeline.RunLocking(active, d.opt.Threads, gen, d.route)
	case SchemePipelined:
		st, err = d.pipe.RunBatched(active, gen, d.routeOwnedBatch)
	default:
		err = fmt.Errorf("core: unknown scheme %v", d.opt.Scheme)
	}
	if err != nil {
		return err
	}
	d.countGenerate(active, st, c)
	c.ColumnsUsed += d.buf.ColumnsUsed()
	if d.opt.Scheme == SchemeLocking {
		d.countContention(d.buf.ColumnFills(d.fillScratch[:0]), c)
	}
	return nil
}

// begin implements engine.
func (d *deviceF32) begin() int64 { return d.buf.Reset() }

// exchange implements engine: received messages enter the CSB through its
// synchronized insert.
func (d *deviceF32) exchange(activeLocal int64, c *machine.Counters, pt *PhaseTimes) (int64, error) {
	recv, activeRemote, err := exchangeRemote(&d.rankBase, d.ep, d.remote, activeLocal, c, pt)
	for _, m := range recv {
		d.buf.Insert(m.Dst, m.Val)
	}
	return activeRemote, err
}

// reduce implements engine: process, then update, each wall-stamped when
// metrics are on.
func (d *deviceF32) reduce(c *machine.Counters) ([]graph.VertexID, error) {
	measured := d.opt.Metrics != nil
	var t time.Time
	if measured {
		t = time.Now()
	}
	deliveries, err := d.process(c)
	if err != nil {
		return nil, err
	}
	if measured {
		now := time.Now()
		d.wall.process = now.Sub(t).Nanoseconds()
		t = now
	}
	next, err := d.update(deliveries, c)
	if measured {
		d.wall.update = time.Since(t).Nanoseconds()
	}
	return next, err
}

// process dispatches the superstep's process phase: the CSB reduction for
// push supersteps, or the bottom-up sweep (which also reduces the CSB's
// remote deliveries first) for pull supersteps.
func (d *deviceF32) process(c *machine.Counters) ([]delivery, error) {
	if d.din != nil && d.din.mode == DirectionPull {
		return d.processPull(c)
	}
	return d.processPush(c)
}

// processPush runs message processing over the CSB task units with dynamic
// scheduling, on the vectorized or scalar path, and returns the reduced
// deliveries.
func (d *deviceF32) processPush(c *machine.Counters) ([]delivery, error) {
	nTasks := int64(d.buf.NumTasks())
	s, err := sched.New(nTasks, sched.ChunkFor(nTasks, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	vectorized := d.opt.Vectorized && d.app.Profile().Reducible
	perThread := make([][]delivery, d.opt.Threads)
	var reduced atomic.Int64
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			d.maybePanic(fault.PhaseProcess)
			var out []delivery
			var lanes []csb.Lane
			var sortScratch []float32
			var localReduced int64
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for task := lo; task < hi; task++ {
					arr, rows := d.buf.Task(int(task))
					if rows == 0 {
						continue
					}
					lanes = d.buf.Lanes(int(task), lanes[:0])
					if d.sortLanes {
						// Canonicalize each lane's fold order: the lane holds a
						// deterministic multiset (insertion order varies with
						// thread interleaving), so sorting it makes the
						// subsequent reduction — vectorized or scalar —
						// byte-deterministic. Identity padding is untouched and
						// exact under the fold.
						for _, l := range lanes {
							sortScratch = arr.SortLane(l.Lane, int(l.Count), sortScratch)
						}
					}
					if vectorized {
						d.app.ReduceVec(arr, rows)
						for _, l := range lanes {
							out = append(out, delivery{l.Vertex, arr.At(0, l.Lane)})
							localReduced += int64(l.Count)
						}
					} else {
						for _, l := range lanes {
							v := arr.At(0, l.Lane)
							for r := 1; r < int(l.Count); r++ {
								v = d.app.ReduceScalar(v, arr.At(r, l.Lane))
							}
							out = append(out, delivery{l.Vertex, v})
							localReduced += int64(l.Count)
						}
					}
				}
			}
			perThread[t] = out
			reduced.Add(localReduced)
		}(t)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return nil, err
	}
	var total int
	for _, out := range perThread {
		total += len(out)
	}
	deliveries := make([]delivery, 0, total)
	for _, out := range perThread {
		deliveries = append(deliveries, out...)
	}
	if vectorized {
		// Charged from the per-vertex fills, not the rows just reduced: the
		// real packing depends on arrival order (see csb.ChargedRows).
		c.VecRows += d.buf.ChargedRows()
	}
	c.ReducedMessages += reduced.Load()
	c.TaskFetches += s.Fetches()
	c.Steps++
	return deliveries, nil
}

// update applies the reduced messages with dynamic scheduling and returns
// the vertices active in the next iteration.
func (d *deviceF32) update(deliveries []delivery, c *machine.Counters) ([]graph.VertexID, error) {
	n := int64(len(deliveries))
	s, err := sched.New(n, sched.ChunkFor(n, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	perThread := make([][]graph.VertexID, d.opt.Threads)
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			d.maybePanic(fault.PhaseUpdate)
			var act []graph.VertexID
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					dl := deliveries[i]
					if d.app.Update(dl.v, dl.val) {
						act = append(act, dl.v)
					}
				}
			}
			perThread[t] = act
		}(t)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return nil, err
	}
	var next []graph.VertexID
	for _, act := range perThread {
		next = append(next, act...)
	}
	c.UpdatedVertices += n
	c.TaskFetches += s.Fetches()
	c.Steps++
	return next, nil
}

// phaseTimes implements engine.
func (d *deviceF32) phaseTimes(c machine.Counters) PhaseTimes { return d.price(c, d.opt.Vectorized) }

// RunF32 executes app on a single modeled device until no vertex is active
// or MaxIterations is reached.
func RunF32(app AppF32, g *graph.CSR, opt Options) (Result, error) {
	if err := validateRunArgs(app, g); err != nil {
		return Result{}, err
	}
	d, err := newDeviceF32(app, g, pullTranspose(app, g, opt), opt, 0, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return runSingle(d, app.Init(g), IsFixedActive(app))
}
