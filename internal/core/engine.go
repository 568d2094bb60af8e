package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetgraph/internal/comm"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/trace"
)

// engine is one rank's superstep machinery as the drivers (runSingle and the
// supervisor's runSegment) see it: a handful of phase-level calls per
// superstep, none per message. deviceF32 and deviceGeneric implement it;
// their per-message route and insert paths stay concrete, so the hot loops
// carry no dynamic dispatch.
type engine interface {
	// base returns the state every engine shares: options, rank, superstep,
	// wall stamps and the endpoint controls.
	base() *rankBase
	// begin clears the message buffer for a new superstep and returns the
	// bytes the reset wrote.
	begin() int64
	// generate runs the generate phase over this rank's active vertices.
	generate(active []graph.VertexID, c *machine.Counters) error
	// exchange is the implicit remote exchange: it ships the remote
	// messages and this rank's active count, inserts what arrives, and
	// returns the peers' summed active count (zero without live peers).
	exchange(activeLocal int64, c *machine.Counters, pt *PhaseTimes) (int64, error)
	// reduce processes the received messages and updates the vertices,
	// stamping their wall times, and returns the next active set.
	reduce(c *machine.Counters) ([]graph.VertexID, error)
	// phaseTimes prices one superstep's counters on the modeled device.
	phaseTimes(c machine.Counters) PhaseTimes
	// direction labels the superstep's samples ("push"/"pull", "" for
	// direction-less apps).
	direction() string
	// release returns pooled resources; call it only after the engine's
	// goroutine has returned.
	release()
}

// endpoint is the part of a rank's comm.Endpoint the supervisor drives,
// whatever the message type.
type endpoint interface {
	Abort()
	SetStep(step int64)
	ResumeHandshake(gen uint64) (uint64, error)
	RejoinHandshake(epoch, gen uint64, step int64) error
}

// rankBase is the state every engine embeds: the resolved options and cost
// model, the rank's ownership view, its endpoint controls, the superstep
// being run and its phase wall stamps.
type rankBase struct {
	g      *graph.CSR
	opt    Options
	cm     machine.CostModel
	rank   int
	assign []int32
	// ctl is the rank's endpoint as the supervisor drives it; nil in
	// single-device runs.
	ctl endpoint
	// step is the current superstep, used to index injected faults.
	step int64
	// wall holds the current superstep's measured wall-clock phase
	// durations; written only when opt.Metrics is non-nil (exchange is the
	// exception: comm measures it regardless, the copy here is free).
	wall phaseWallNS

	remoteMu    sync.Mutex
	remCount    atomic.Int64
	fillScratch []int32
}

// init resolves and validates opt and builds the cost model for prof.
func (b *rankBase) init(g *graph.CSR, opt Options, prof machine.AppProfile, rank int, assign []int32) error {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return err
	}
	cm, err := machine.NewCostModel(opt.Dev, prof)
	if err != nil {
		return err
	}
	b.g, b.opt, b.cm, b.rank, b.assign = g, opt, cm, rank, assign
	return nil
}

func (b *rankBase) base() *rankBase { return b }

// local reports whether this rank owns v.
func (b *rankBase) local(v graph.VertexID) bool {
	return b.assign == nil || b.assign[v] == int32(b.rank)
}

// maybePanic fires the panic the fault plan schedules for this rank in phase
// at the current superstep, if any.
func (b *rankBase) maybePanic(phase fault.Phase) {
	if b.opt.Fault.PanicNow(b.rank, b.step, phase) {
		panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase %s", b.rank, b.step, phase))
	}
}

// countGenerate folds a push generate phase's statistics into c.
func (b *rankBase) countGenerate(active []graph.VertexID, st pipeline.Stats, c *machine.Counters) {
	c.ActiveVertices += int64(len(active))
	c.EdgesTraversed += st.Messages
	c.Messages += st.Messages
	c.TaskFetches += st.TaskFetches
	c.QueueOps += st.QueueOps
	c.QueueBatchOps += st.QueueBatchOps
	c.RemoteMessages += b.remCount.Swap(0)
	c.Steps++
}

// countContention prices the locking scheme's insert contention from the
// real per-column fills, for the modeled device's thread count.
func (b *rankBase) countContention(fills []int32, c *machine.Counters) {
	b.fillScratch = fills
	exp, floor := machine.ContentionStats(fills, b.opt.Dev.Threads())
	c.ConflictExpected += exp
	if floor > c.SerialFloorMsgs {
		c.SerialFloorMsgs = floor
	}
}

// price is the phase pricing both engines share; vectorized selects the
// SIMD process model. Pull supersteps add the bottom-up in-edge sweep to the
// process phase (zero when no edges were scanned).
func (b *rankBase) price(c machine.Counters, vectorized bool) PhaseTimes {
	var pt PhaseTimes
	threads := b.opt.Dev.Threads()
	switch b.opt.Scheme {
	case SchemePipelined:
		pt.Generate = b.cm.GeneratePipelined(c, threads-machineMovers(b.opt), machineMovers(b.opt))
	default:
		pt.Generate = b.cm.GenerateLocking(c, threads)
	}
	pt.Process = b.cm.Process(c, threads, vectorized) + b.cm.Pull(c, threads)
	pt.Update = b.cm.Update(c, threads)
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

// phaseWallNS is one superstep's measured wall-clock phase durations in
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

// recordMetrics emits the superstep's wall-clock + simulated phase samples
// to the configured metrics sink, if any, and resets the wall scratch.
func (b *rankBase) recordMetrics(step int64, dir string, c machine.Counters, pt PhaseTimes) {
	sink := b.opt.Metrics
	if sink == nil {
		return
	}
	dev := b.opt.traceLabel()
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: b.rank, Superstep: step, Phase: metrics.PhaseGenerate, Direction: dir, WallNS: b.wall.generate, SimSeconds: pt.Generate, Events: c.Messages})
	if c.Exchanges > 0 {
		sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: b.rank, Superstep: step, Phase: metrics.PhaseExchange, Direction: dir, WallNS: b.wall.exchange, SimSeconds: pt.Exchange, Events: c.BytesSent})
	}
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: b.rank, Superstep: step, Phase: metrics.PhaseProcess, Direction: dir, WallNS: b.wall.process, SimSeconds: pt.Process, Events: c.ReducedMessages})
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: b.rank, Superstep: step, Phase: metrics.PhaseUpdate, Direction: dir, WallNS: b.wall.update, SimSeconds: pt.Update, Events: c.UpdatedVertices})
	b.wall = phaseWallNS{}
}

// recordTrace emits the superstep's phase samples to the configured
// recorder, if any.
func (b *rankBase) recordTrace(iter int64, dir string, c machine.Counters, pt PhaseTimes) {
	r := b.opt.Trace
	if r == nil {
		return
	}
	dev := b.opt.traceLabel()
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseGenerate, Direction: dir, SimSeconds: pt.Generate, Events: c.Messages})
	if c.Exchanges > 0 {
		r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseExchange, Direction: dir, SimSeconds: pt.Exchange, Events: c.BytesSent})
	}
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseProcess, Direction: dir, SimSeconds: pt.Process, Events: c.ReducedMessages})
	r.Record(trace.Sample{Device: dev, Iteration: iter, Phase: trace.PhaseUpdate, Direction: dir, SimSeconds: pt.Update, Events: c.UpdatedVertices})
}

// superstep runs one BSP superstep of Fig. 2 on e: generate, the implicit
// remote exchange (a no-op without live peers), then process and update.
// The exchange carries this rank's active count, which doubles as the
// termination allreduce: when no vertex was active anywhere (and the app's
// active set is not fixed), nothing was generated and done reports the run
// over — that convergence-detection superstep carries only generate and
// exchange work. Its wall time, including the lockstep wait for the peers,
// is measured by comm and copied into the wall stamps by exchange.
func superstep(e engine, active []graph.VertexID, fixed bool) (next []graph.VertexID, c machine.Counters, pt PhaseTimes, done bool, err error) {
	b := e.base()
	measured := b.opt.Metrics != nil
	c.Iterations = 1
	c.BufferResetBytes = e.begin()
	var t time.Time
	if measured {
		t = time.Now()
	}
	if err = e.generate(active, &c); err != nil {
		return nil, c, pt, false, err
	}
	if measured {
		b.wall.generate = time.Since(t).Nanoseconds()
	}
	remoteActive, err := e.exchange(int64(len(active)), &c, &pt)
	if err != nil {
		return nil, c, pt, false, err
	}
	if int64(len(active))+remoteActive == 0 && !fixed {
		return nil, c, pt, true, nil
	}
	if next, err = e.reduce(&c); err != nil {
		return nil, c, pt, false, err
	}
	compute := e.phaseTimes(c)
	pt.Generate, pt.Process, pt.Update = compute.Generate, compute.Process, compute.Update
	return next, c, pt, false, nil
}

// runSingle is the single-device driver: supersteps until no vertex is
// active or MaxIterations is reached. The returned Result holds every
// completed superstep even when the run fails or is aborted. It releases e.
func runSingle(e engine, active []graph.VertexID, fixed bool) (Result, error) {
	defer e.release()
	b := e.base()
	start := time.Now()
	var res Result
	finish := func(err error) (Result, error) {
		res.SimSeconds = res.Phases.Total()
		res.WallSeconds = time.Since(start).Seconds()
		return res, err
	}
	for iter := int64(0); iter < int64(b.opt.MaxIterations) && len(active) > 0; iter++ {
		if abortRequested(b.opt.Abort) {
			emitEvent(b.opt.Metrics, metrics.Event{
				Kind: metrics.EventRunAborted, Rank: b.rank,
				Superstep: iter, Detail: "cooperative abort at superstep boundary",
			})
			return finish(&RunAbortedError{Superstep: iter})
		}
		b.step = iter
		next, c, pt, _, err := superstep(e, active, fixed)
		if err != nil {
			// Attribute the failure to its superstep and return the result
			// accumulated so far — the counters and phase times of every
			// completed superstep are diagnostic material, not garbage.
			err = fmt.Errorf("core: superstep %d: %w", iter, err)
			emitEvent(b.opt.Metrics, metrics.Event{
				Kind: metrics.EventSuperstepError, Rank: b.rank,
				Superstep: iter, Detail: err.Error(),
			})
			return finish(err)
		}
		dir := e.direction()
		b.recordTrace(iter, dir, c, pt)
		b.recordMetrics(iter, dir, c, pt)
		recordIter(&res, c, pt)
		if !fixed {
			active = next
		}
	}
	res.Converged = len(active) == 0
	return finish(nil)
}

// recordIter accumulates one superstep into a rank's Result.
func recordIter(r *Result, c machine.Counters, pt PhaseTimes) {
	r.Iterations++
	r.Counters.Add(c)
	r.Phases.Add(pt)
	r.SimSeconds = r.Phases.Total()
}

// routedDrainer is the remote combiner as the exchange uses it.
type routedDrainer[T any] interface {
	DrainRouted(out [][]comm.Msg[T], rankOf func(graph.VertexID) int) [][]comm.Msg[T]
}

// exchangeRemote drains remote routed per destination owner, swaps payloads
// with every live peer over ep, and charges the round to c, pt and the wall
// stamps. It returns what arrived and the peers' summed active count, or a
// *comm.DeviceFailedError when the round failed (timeout, dead peer, or an
// injected fault on this rank). With no endpoint or no live peers the round
// is a no-op (a lone member owns every vertex, so the combiner is empty by
// construction).
func exchangeRemote[T any](b *rankBase, ep *comm.Endpoint[T], remote routedDrainer[T], activeLocal int64, c *machine.Counters, pt *PhaseTimes) ([]comm.Msg[T], int64, error) {
	if ep == nil || ep.NumLivePeers() == 0 {
		return nil, 0, nil
	}
	// Drain into fresh per-rank slices: the payload crosses to peers that
	// may still be reading it while this rank runs ahead — reusing a scratch
	// buffer here would race with the receivers.
	send := remote.DrainRouted(make([][]comm.Msg[T], ep.Ranks()), func(v graph.VertexID) int { return int(b.assign[v]) })
	recv, activeRemote, st, err := ep.ExchangeAll(send, activeLocal)
	if err != nil {
		return nil, 0, err
	}
	c.Messages += int64(len(recv))
	c.BytesSent += st.BytesSent
	c.Exchanges++
	pt.Exchange += st.SimSeconds
	b.wall.exchange += st.WallNS
	return recv, activeRemote, nil
}
