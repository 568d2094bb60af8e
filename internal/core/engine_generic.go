package core

import (
	"errors"
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
)

// deviceGeneric is one device's engine for structured-message applications
// (Semi-Clustering). Messages live in a per-vertex list buffer; there is no
// SIMD reduction path (§III), so processing always walks the lists.
type deviceGeneric[T any] struct {
	app    AppGeneric[T]
	g      *graph.CSR
	opt    Options
	cm     machine.CostModel
	buf    *csb.GenericBuffer[T]
	rank   int
	assign []int32
	ep     *comm.Endpoint[T]
	// step is the current superstep, used to index injected faults. Note
	// the generic engine performs two exchange rounds per superstep, so
	// fault-plan steps that target the exchange count rounds, not
	// supersteps (see docs/robustness.md).
	step int64

	remoteMu sync.Mutex
	remote   *comm.Combiner[T]
	remCount atomic.Int64

	fillScratch []int32
	pipe        *pipeline.Pipelined[T]

	// wall accumulates measured host time per phase for the current
	// superstep; only written when opt.Metrics is non-nil.
	wall phaseWallNS
}

func newDeviceGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) (*deviceGeneric[T], error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	// The generic engine is push-only: structured messages carry data the
	// pull sweep cannot recompute from parent state alone. Explicit pull is
	// rejected; auto falls back to push.
	if opt.Direction == DirectionPull {
		return nil, &InvalidOptionsError{Field: "Direction", Reason: "pull traversal requires a float32 application implementing core.PullerF32; the generic engine is push-only"}
	}
	cm, err := machine.NewCostModel(opt.Dev, app.Profile())
	if err != nil {
		return nil, err
	}
	d := &deviceGeneric[T]{
		app:  app,
		g:    g,
		opt:  opt,
		cm:   cm,
		buf:  csb.NewGenericBuffer[T](g.NumVertices(), 4*opt.Threads),
		rank: rank, assign: assign, ep: ep,
	}
	if opt.Scheme == SchemePipelined {
		d.pipe, err = pipeline.Acquire[T](opt.Workers, opt.Movers, opt.GenBatchSize)
		if err != nil {
			return nil, err
		}
	}
	if assign != nil {
		d.remote = comm.NewCombiner(g.NumVertices(), app.Combine)
	}
	return d, nil
}

// release returns the device's pooled pipelined engine; call it only after
// the device's goroutine has returned.
func (d *deviceGeneric[T]) release() {
	if d != nil && d.pipe != nil {
		d.pipe.Release()
		d.pipe = nil
	}
}

func (d *deviceGeneric[T]) local(v graph.VertexID) bool {
	return d.assign == nil || d.assign[v] == int32(d.rank)
}

// routeLocked is the locking-scheme emit target.
func (d *deviceGeneric[T]) routeLocked(dst graph.VertexID, val T) {
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
// unique mover for every destination in the batch, so local runs use the
// lock-free batch insert. The remote combiner is still shared across movers
// and keeps its mutex.
func (d *deviceGeneric[T]) routeOwnedBatch(dsts []graph.VertexID, vals []T) {
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

func (d *deviceGeneric[T]) generate(active []graph.VertexID, c *machine.Counters) error {
	gen := func(v graph.VertexID, emit func(graph.VertexID, T)) {
		if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseGenerate) {
			panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase generate", d.rank, d.step))
		}
		d.app.Generate(v, emit)
	}
	var st pipeline.Stats
	var err error
	switch d.opt.Scheme {
	case SchemePipelined:
		st, err = d.pipe.RunBatched(active, gen, d.routeOwnedBatch)
	default:
		st, err = pipeline.RunLocking(active, d.opt.Threads, gen, d.routeLocked)
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
	c.Steps++
	if d.opt.Scheme == SchemeLocking {
		d.fillScratch = d.buf.ColumnFills(d.fillScratch[:0])
		exp, floor := machine.ContentionStats(d.fillScratch, d.opt.Dev.Threads())
		c.ConflictExpected += exp
		if floor > c.SerialFloorMsgs {
			c.SerialFloorMsgs = floor
		}
		c.ColumnsUsed += int64(len(d.fillScratch))
	}
	return nil
}

func (d *deviceGeneric[T]) exchange(activeLocal int64, c *machine.Counters, pt *PhaseTimes) (int64, error) {
	if d.ep == nil || d.ep.NumLivePeers() == 0 {
		return 0, nil
	}
	// Fresh per-rank slices per exchange: the receivers may still be reading
	// the previous payload while this device runs ahead (see deviceF32).
	send := d.remote.DrainRouted(make([][]comm.Msg[T], d.ep.Ranks()), func(v graph.VertexID) int { return int(d.assign[v]) })
	recv, activeRemote, st, err := d.ep.ExchangeAll(send, activeLocal)
	if err != nil {
		return 0, err
	}
	for _, m := range recv {
		d.buf.InsertOwned(m.Dst, m.Val)
	}
	c.Messages += int64(len(recv))
	c.BytesSent += st.BytesSent
	c.Exchanges++
	pt.Exchange += st.SimSeconds
	d.wall.exchange += st.WallNS
	return activeRemote, nil
}

// processAndUpdate walks every vertex with messages, reduces its list via
// the user Process, applies Update, and returns the next active set. The
// two steps are fused over the vertex-chunk schedule (each vertex's
// messages are consumed exactly once), but counted as two steps, matching
// the runtime structure.
func (d *deviceGeneric[T]) processAndUpdate(c *machine.Counters) ([]graph.VertexID, error) {
	n := int64(d.g.NumVertices())
	s, err := sched.New(n, sched.ChunkFor(n, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	perThread := make([][]graph.VertexID, d.opt.Threads)
	var reduced, updated atomic.Int64
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseProcess) || d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseUpdate) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase process/update", d.rank, d.step))
			}
			var act []graph.VertexID
			var localReduced, localUpdated int64
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					v := graph.VertexID(i)
					if !d.buf.Has(v) {
						continue
					}
					msgs := d.buf.Drain(v)
					res := d.app.Process(v, msgs)
					localReduced += int64(len(msgs))
					localUpdated++
					if d.app.Update(v, res) {
						act = append(act, v)
					}
				}
			}
			perThread[t] = act
			reduced.Add(localReduced)
			updated.Add(localUpdated)
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
	c.ReducedMessages += reduced.Load()
	c.UpdatedVertices += updated.Load()
	c.TaskFetches += s.Fetches()
	c.Steps += 2
	return next, nil
}

// recordMetrics emits the superstep's wall-clock + simulated phase samples
// to the configured metrics sink, if any, and resets the wall scratch. The
// generic engine fuses process and update over one vertex walk, so the
// fused wall time is attributed to the process sample and the update sample
// carries only simulated time (see docs/observability.md).
func (d *deviceGeneric[T]) recordMetrics(superstep int64, c machine.Counters, pt PhaseTimes) {
	sink := d.opt.Metrics
	if sink == nil {
		return
	}
	dev := d.opt.traceLabel()
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: superstep, Phase: metrics.PhaseGenerate, WallNS: d.wall.generate, SimSeconds: pt.Generate, Events: c.Messages})
	if c.Exchanges > 0 {
		sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: superstep, Phase: metrics.PhaseExchange, WallNS: d.wall.exchange, SimSeconds: pt.Exchange, Events: c.BytesSent})
	}
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: superstep, Phase: metrics.PhaseProcess, WallNS: d.wall.process, SimSeconds: pt.Process, Events: c.ReducedMessages})
	sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: d.rank, Superstep: superstep, Phase: metrics.PhaseUpdate, WallNS: d.wall.update, SimSeconds: pt.Update, Events: c.UpdatedVertices})
	d.wall = phaseWallNS{}
}

func (d *deviceGeneric[T]) phaseTimes(c machine.Counters) PhaseTimes {
	var pt PhaseTimes
	switch d.opt.Scheme {
	case SchemePipelined:
		pt.Generate = d.cm.GeneratePipelined(c, d.opt.Dev.Threads()-machineMovers(d.opt), machineMovers(d.opt))
	default:
		pt.Generate = d.cm.GenerateLocking(c, d.opt.Dev.Threads())
	}
	pt.Process = d.cm.Process(c, d.opt.Dev.Threads(), false)
	pt.Update = d.cm.Update(c, d.opt.Dev.Threads())
	return pt
}

// RunGeneric executes a structured-message app on a single modeled device.
func RunGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options) (Result, error) {
	if err := validateRunArgs(app, g); err != nil {
		return Result{}, err
	}
	start := time.Now()
	d, err := newDeviceGeneric(app, g, opt, 0, nil, nil)
	if err != nil {
		return Result{}, err
	}
	defer d.release()
	var res Result
	active := app.Init(g)
	fixed := IsFixedActive(app)
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
		var c machine.Counters
		c.Iterations = 1
		d.buf.Reset()
		measured := d.opt.Metrics != nil
		var t time.Time
		if measured {
			t = time.Now()
		}
		if err := d.generate(active, &c); err != nil {
			err = fmt.Errorf("core: superstep %d: %w", iter, err)
			emitEvent(d.opt.Metrics, metrics.Event{Kind: metrics.EventSuperstepError, Rank: d.rank, Superstep: int64(iter), Detail: err.Error()})
			res.SimSeconds = res.Phases.Total()
			res.WallSeconds = time.Since(start).Seconds()
			return res, err
		}
		if measured {
			d.wall.generate = time.Since(t).Nanoseconds()
			t = time.Now()
		}
		next, err := d.processAndUpdate(&c)
		if err != nil {
			err = fmt.Errorf("core: superstep %d: %w", iter, err)
			emitEvent(d.opt.Metrics, metrics.Event{Kind: metrics.EventSuperstepError, Rank: d.rank, Superstep: int64(iter), Detail: err.Error()})
			res.SimSeconds = res.Phases.Total()
			res.WallSeconds = time.Since(start).Seconds()
			return res, err
		}
		if measured {
			d.wall.process = time.Since(t).Nanoseconds()
		}
		res.Iterations++
		res.Counters.Add(c)
		pt := d.phaseTimes(c)
		res.Phases.Add(pt)
		d.recordMetrics(int64(iter), c, pt)
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

// RunGenericHetero executes a structured-message app across a group of
// N >= 2 modeled devices, mirroring RunF32Hetero. Exchange deadlines and
// fault injection apply here too, but there is no checkpoint-based recovery
// for structured-message apps: a rank failure surfaces as an error (the
// Snapshotter-driven degradation path is float32-only; see
// docs/robustness.md).
func RunGenericHetero[T any](app AppGeneric[T], g *graph.CSR, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	if err := validateRunArgs(app, g); err != nil {
		return HeteroResult{}, err
	}
	start := time.Now()
	opts, err := expandDeviceGroup(deviceOpts)
	if err != nil {
		return HeteroResult{}, err
	}
	n := len(opts)
	if err := validAssign(g, assign, n); err != nil {
		return HeteroResult{}, err
	}
	net, err := comm.NewGroupNet[T](machine.PCIe(), app.Profile().MsgBytes, n)
	if err != nil {
		return HeteroResult{}, err
	}
	cfg := resolveFaultConfig(opts...)
	net.SetTimeout(cfg.timeout)
	net.SetInjector(cfg.inj)
	// Every rank consults the resolved injector for in-phase events and
	// the merged abort channel for cooperative shutdown.
	for r := range opts {
		opts[r].Fault = cfg.inj
		opts[r].Abort = cfg.abort
	}
	resolveTraceLabels(opts)
	devs := make([]*deviceGeneric[T], n)
	for r := 0; r < n; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return HeteroResult{}, err
		}
		devs[r], err = newDeviceGeneric(app, g, opts[r], r, assign, ep)
		if err != nil {
			return HeteroResult{}, err
		}
	}
	maxIter := devs[0].opt.MaxIterations
	for r := 1; r < n; r++ {
		if devs[r].opt.MaxIterations < maxIter {
			maxIter = devs[r].opt.MaxIterations
		}
	}
	active := app.Init(g)
	actives := splitActiveN(active, assign, n)

	var (
		res       HeteroResult
		iterTimes = make([][]float64, n)
		wg        sync.WaitGroup
		runErr    = make([]error, n)
	)
	res.Dev = make([]Result, n)
	res.FailedRank = -1
	res.FailedSuperstep = -1
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := devs[r]
			// On any error, declare this rank dead so the peer's next
			// exchange fails fast instead of deadlocking.
			defer func() {
				if runErr[r] != nil {
					d.ep.Abort()
				}
			}()
			active := actives[r]
			fixed := IsFixedActive(d.app)
			initial := active
			fail := func(iter int, err error) {
				err = fmt.Errorf("core: rank %d superstep %d: %w", r, iter, err)
				emitEvent(d.opt.Metrics, metrics.Event{Kind: metrics.EventSuperstepError, Rank: r, Superstep: int64(iter), Detail: err.Error()})
				runErr[r] = err
			}
			for iter := 0; iter < maxIter; iter++ {
				if abortRequested(d.opt.Abort) {
					runErr[r] = &RunAbortedError{Superstep: int64(iter)}
					return
				}
				d.step = int64(iter)
				var c machine.Counters
				var pt PhaseTimes
				c.Iterations = 1
				d.buf.Reset()
				measured := d.opt.Metrics != nil
				var t time.Time
				if measured {
					t = time.Now()
				}
				if err := d.generate(active, &c); err != nil {
					fail(iter, err)
					return
				}
				if measured {
					d.wall.generate = time.Since(t).Nanoseconds()
				}
				if _, err := d.exchange(int64(len(active)), &c, &pt); err != nil {
					fail(iter, err)
					return
				}
				if measured {
					t = time.Now()
				}
				next, err := d.processAndUpdate(&c)
				if err != nil {
					fail(iter, err)
					return
				}
				if measured {
					d.wall.process = time.Since(t).Nanoseconds()
				}
				compute := d.phaseTimes(c)
				pt.Generate, pt.Process, pt.Update = compute.Generate, compute.Process, compute.Update
				_, remoteActive, st, err := d.ep.ExchangeAll(make([][]comm.Msg[T], n), int64(len(next)))
				if err != nil {
					fail(iter, err)
					return
				}
				c.Exchanges++
				pt.Exchange += st.SimSeconds
				d.wall.exchange += st.WallNS

				res.Dev[r].Iterations++
				res.Dev[r].Counters.Add(c)
				res.Dev[r].Phases.Add(pt)
				res.Dev[r].SimSeconds = res.Dev[r].Phases.Total()
				iterTimes[r] = append(iterTimes[r], pt.Generate+pt.Process+pt.Update)
				d.recordMetrics(int64(iter), c, pt)
				if fixed {
					active = initial
				} else {
					active = next
				}
				if int64(len(next))+remoteActive == 0 && !fixed {
					res.Dev[r].Converged = true
					return
				}
			}
		}(r)
	}
	wg.Wait()
	// Every rank goroutine has returned; a failed rank's engine is left to
	// the GC.
	for r, d := range devs {
		if runErr[r] == nil {
			d.release()
		}
	}
	// An abort takes precedence over the peers' collateral failure errors.
	for r := 0; r < n; r++ {
		var aerr *RunAbortedError
		if errors.As(runErr[r], &aerr) {
			emitEvent(cfg.sink, metrics.Event{
				Kind: metrics.EventRunAborted, Rank: -1, Superstep: aerr.Superstep,
				Detail: fmt.Sprintf("cooperative abort at superstep boundary %d", aerr.Superstep),
			})
			return HeteroResult{}, aerr
		}
	}
	// A clean two-sided partition outranks the per-rank severed-link
	// verdicts: there is no checkpoint recovery here, so the run aborts, but
	// with a typed error naming both sides.
	if maj, minr, pstep, ok := severedPartition(allRanks(n), runErr); ok {
		perr := &comm.PartitionedError{Superstep: pstep, Majority: maj, Minority: minr}
		emitEvent(cfg.sink, metrics.Event{
			Kind: metrics.EventPartitioned, Rank: -1, Superstep: pstep, Detail: perr.Error(),
		})
		return HeteroResult{}, perr
	}
	for r := 0; r < n; r++ {
		if runErr[r] != nil {
			return HeteroResult{}, runErr[r]
		}
	}
	res.Links = net.LinkStats()
	res.Integrity = net.Integrity()
	recordLinks(cfg.sink, res.Links, res.Integrity)
	res.Iterations = res.Dev[0].Iterations
	res.Converged = true
	for r := 0; r < n; r++ {
		if !res.Dev[r].Converged {
			res.Converged = false
		}
	}
	res.ExecSeconds = lockstepSeconds(iterTimes, 0, len(iterTimes[0]))
	res.CommSeconds = res.Dev[0].Phases.Exchange
	res.SimSeconds = res.ExecSeconds + res.CommSeconds
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}
