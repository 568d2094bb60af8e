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
	"hetgraph/internal/metrics"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/sched"
	"hetgraph/internal/trace"
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
	app    AppF32
	g      *graph.CSR
	opt    Options
	cm     machine.CostModel
	buf    *csb.Buffer
	rank   int
	assign []int32
	ep     *comm.Endpoint[float32]
	// step is the current superstep, used to index injected faults.
	step int64
	// wall holds the current iteration's measured wall-clock phase
	// durations; written only when opt.Metrics is non-nil (exchange is the
	// exception: comm measures it regardless, the copy here is free).
	wall phaseWallNS

	remoteMu sync.Mutex
	remote   remoteCombinerF32
	remCount atomic.Int64

	fillScratch []int32
	pipe        *pipeline.Pipelined[float32]

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
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cm, err := machine.NewCostModel(opt.Dev, app.Profile())
	if err != nil {
		return nil, err
	}
	buf, err := csb.Build(g, csb.Config{
		Width:    opt.Dev.SIMDWidth,
		K:        opt.K,
		Identity: app.Identity(),
		Mode:     opt.CSBMode,
	})
	if err != nil {
		return nil, err
	}
	d := &deviceF32{app: app, g: g, opt: opt, cm: cm, buf: buf, rank: rank, assign: assign, ep: ep}
	if assign != nil {
		if IsOrderSensitive(app) {
			d.remote = comm.NewSortingCombiner[float32](g.NumVertices(), app.ReduceScalar)
		} else {
			d.remote = comm.NewCombiner(g.NumVertices(), app.ReduceScalar)
		}
	}
	d.sortLanes = IsOrderSensitive(app)
	if opt.Direction != DirectionPush {
		if p, ok := app.(PullerF32); ok {
			d.din = newDirectionState(p, g, tg, rank, assign)
		} else if opt.Direction == DirectionPull {
			return nil, &InvalidOptionsError{Field: "Direction", Reason: fmt.Sprintf("pull requires the application to implement core.PullerF32; %T does not (auto falls back to push)", app)}
		}
	}
	if opt.Scheme == SchemePipelined {
		d.pipe, err = pipeline.Acquire[float32](opt.Workers, opt.Movers, opt.GenBatchSize)
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

// releaseF32 releases every non-nil device in devs.
func releaseF32(devs []*deviceF32) {
	for _, d := range devs {
		d.release()
	}
}

// local reports whether this device owns v.
func (d *deviceF32) local(v graph.VertexID) bool {
	return d.assign == nil || d.assign[v] == int32(d.rank)
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
		if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseGenerate) {
			panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase generate", d.rank, d.step))
		}
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
	c.ActiveVertices += int64(len(active))
	c.EdgesTraversed += st.Messages
	c.Messages += st.Messages
	c.TaskFetches += st.TaskFetches
	c.QueueOps += st.QueueOps
	c.QueueBatchOps += st.QueueBatchOps
	c.RemoteMessages += d.remCount.Swap(0)
	c.ColumnsUsed += d.buf.ColumnsUsed()
	c.Steps++
	if d.opt.Scheme == SchemeLocking {
		// Contention statistics from the real per-column insert counts,
		// priced for the modeled device's thread count.
		d.fillScratch = d.buf.ColumnFills(d.fillScratch[:0])
		exp, floor := machine.ContentionStats(d.fillScratch, d.opt.Dev.Threads())
		c.ConflictExpected += exp
		if floor > c.SerialFloorMsgs {
			c.SerialFloorMsgs = floor
		}
	}
	return nil
}

// exchange performs the cross-device round: drains the remote combiner
// routed per destination owner, swaps payloads with every live peer, and
// inserts received messages locally. It returns the peers' summed active
// count from the previous update step, or a *comm.DeviceFailedError when
// the round failed (timeout, dead peer, or an injected fault on this rank).
// With no endpoint or no live peers the round is a no-op (a lone member
// owns every vertex, so the combiner is empty by construction).
func (d *deviceF32) exchange(activeLocal int64, c *machine.Counters, pt *PhaseTimes) (int64, error) {
	if d.ep == nil || d.ep.NumLivePeers() == 0 {
		return 0, nil
	}
	// Drain into fresh per-rank slices: the payload crosses to peers that
	// may still be reading it while this device runs ahead — reusing a
	// scratch buffer here would race with the receivers.
	send := d.remote.DrainRouted(make([][]comm.Msg[float32], d.ep.Ranks()), func(v graph.VertexID) int { return int(d.assign[v]) })
	recv, activeRemote, st, err := d.ep.ExchangeAll(send, activeLocal)
	if err != nil {
		return 0, err
	}
	for _, m := range recv {
		d.buf.Insert(m.Dst, m.Val)
	}
	c.Messages += int64(len(recv))
	c.BytesSent += st.BytesSent
	c.Exchanges++
	pt.Exchange += st.SimSeconds
	d.wall.exchange += st.WallNS
	return activeRemote, nil
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
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseProcess) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase process", d.rank, d.step))
			}
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
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseUpdate) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase update", d.rank, d.step))
			}
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

// phaseTimes prices one iteration's counters on the modeled device.
func (d *deviceF32) phaseTimes(c machine.Counters) PhaseTimes {
	var pt PhaseTimes
	switch d.opt.Scheme {
	case SchemePipelined:
		pt.Generate = d.cm.GeneratePipelined(c, d.opt.Dev.Threads()-machineMovers(d.opt), machineMovers(d.opt))
	default:
		pt.Generate = d.cm.GenerateLocking(c, d.opt.Dev.Threads())
	}
	pt.Process = d.cm.Process(c, d.opt.Dev.Threads(), d.opt.Vectorized)
	// Pull supersteps add the bottom-up in-edge sweep to the process phase;
	// zero when no edges were scanned.
	pt.Process += d.cm.Pull(c, d.opt.Dev.Threads())
	pt.Update = d.cm.Update(c, d.opt.Dev.Threads())
	return pt
}

// machineMovers returns the mover count scaled to the modeled device (the
// real goroutine split may differ when Threads is overridden).
func machineMovers(o Options) int {
	_, movers := machine.DefaultPipeSplit(o.Dev)
	if o.Movers > 0 && o.Workers > 0 && o.Workers+o.Movers == o.Dev.Threads() {
		return o.Movers
	}
	return movers
}

// phaseWallNS is one iteration's measured wall-clock phase durations in
// nanoseconds.
type phaseWallNS struct {
	generate, exchange, process, update int64
}

// emitEvent records e on sink, stamping the host time; nil-safe.
func emitEvent(sink metrics.Sink, e metrics.Event) {
	if sink == nil {
		return
	}
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	sink.RecordEvent(e)
}

// recordMetrics emits the iteration's wall-clock + simulated phase samples
// to the configured metrics sink, if any, and resets the wall scratch.
func (d *deviceF32) recordMetrics(iter int64, c machine.Counters, pt PhaseTimes) {
	sink := d.opt.Metrics
	if sink == nil {
		return
	}
	dev := d.opt.traceLabel()
	dir := d.direction()
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: iter, Phase: metrics.PhaseGenerate, Direction: dir, WallNS: d.wall.generate, SimSeconds: pt.Generate, Events: c.Messages})
	if c.Exchanges > 0 {
		sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: iter, Phase: metrics.PhaseExchange, Direction: dir, WallNS: d.wall.exchange, SimSeconds: pt.Exchange, Events: c.BytesSent})
	}
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: iter, Phase: metrics.PhaseProcess, Direction: dir, WallNS: d.wall.process, SimSeconds: pt.Process, Events: c.ReducedMessages})
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: iter, Phase: metrics.PhaseUpdate, Direction: dir, WallNS: d.wall.update, SimSeconds: pt.Update, Events: c.UpdatedVertices})
	d.wall = phaseWallNS{}
}

// recordTrace emits the iteration's phase samples to the configured
// recorder, if any.
func (d *deviceF32) recordTrace(iter int64, c machine.Counters, pt PhaseTimes) {
	r := d.opt.Trace
	if r == nil {
		return
	}
	dev := d.opt.traceLabel()
	dir := d.direction()
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseGenerate, Direction: dir, SimSeconds: pt.Generate, Events: c.Messages})
	if c.Exchanges > 0 {
		r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseExchange, Direction: dir, SimSeconds: pt.Exchange, Events: c.BytesSent})
	}
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseProcess, Direction: dir, SimSeconds: pt.Process, Events: c.ReducedMessages})
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseUpdate, Direction: dir, SimSeconds: pt.Update, Events: c.UpdatedVertices})
}

// runIteration executes one full superstep (without exchange) and returns
// the next active set, the iteration counters, and their simulated time.
func (d *deviceF32) runIteration(active []graph.VertexID) ([]graph.VertexID, machine.Counters, PhaseTimes, error) {
	measured := d.opt.Metrics != nil
	var c machine.Counters
	c.Iterations = 1
	c.BufferResetBytes = d.buf.Reset()
	var t time.Time
	if measured {
		t = time.Now()
	}
	if err := d.generate(active, &c); err != nil {
		return nil, c, PhaseTimes{}, err
	}
	if measured {
		now := time.Now()
		d.wall.generate = now.Sub(t).Nanoseconds()
		t = now
	}
	deliveries, err := d.process(&c)
	if err != nil {
		return nil, c, PhaseTimes{}, err
	}
	if measured {
		now := time.Now()
		d.wall.process = now.Sub(t).Nanoseconds()
		t = now
	}
	next, err := d.update(deliveries, &c)
	if err != nil {
		return nil, c, PhaseTimes{}, err
	}
	if measured {
		d.wall.update = time.Since(t).Nanoseconds()
	}
	return next, c, d.phaseTimes(c), nil
}

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
	defer d.release()
	active := app.Init(g)
	start := time.Now()
	var res Result
	fixed := IsFixedActive(d.app)
	initial := active
	for iter := 0; iter < d.opt.MaxIterations; iter++ {
		d.step = int64(iter)
		if len(active) == 0 {
			res.Converged = true
			break
		}
		if abortRequested(d.opt.Abort) {
			emitEvent(d.opt.Metrics, metrics.Event{
				Kind: metrics.EventRunAborted, Rank: d.rank,
				Superstep: int64(iter), Detail: "cooperative abort at superstep boundary",
			})
			res.SimSeconds = res.Phases.Total()
			res.WallSeconds = time.Since(start).Seconds()
			return res, &RunAbortedError{Superstep: int64(iter)}
		}
		next, c, pt, err := d.runIteration(active)
		if err != nil {
			// Attribute the failure to its superstep and return the result
			// accumulated so far — the counters and phase times of every
			// completed iteration are diagnostic material, not garbage.
			err = fmt.Errorf("core: superstep %d: %w", iter, err)
			emitEvent(d.opt.Metrics, metrics.Event{
				Kind: metrics.EventSuperstepError, Rank: d.rank,
				Superstep: int64(iter), Detail: err.Error(),
			})
			res.SimSeconds = res.Phases.Total()
			res.WallSeconds = time.Since(start).Seconds()
			return res, err
		}
		d.recordTrace(res.Iterations, c, pt)
		d.recordMetrics(res.Iterations, c, pt)
		res.Iterations++
		res.Counters.Add(c)
		res.Phases.Add(pt)
		if fixed {
			active = initial
		} else {
			active = next
		}
	}
	if len(active) == 0 {
		res.Converged = true
	}
	res.SimSeconds = res.Phases.Total()
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}
