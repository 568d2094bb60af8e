package core

import (
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

// deviceGeneric is one device's engine for structured-message applications
// (Semi-Clustering). Messages live in a per-vertex list buffer; there is no
// SIMD reduction path (§III), so processing always walks the lists.
type deviceGeneric[T any] struct {
	rankBase
	app AppGeneric[T]
	buf *csb.GenericBuffer[T]
	ep  *comm.Endpoint[T]

	remote *comm.Combiner[T]
	pipe   *pipeline.Pipelined[T]
}

func newDeviceGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) (*deviceGeneric[T], error) {
	d := &deviceGeneric[T]{app: app, ep: ep}
	if err := d.init(g, opt, app.Profile(), rank, assign); err != nil {
		return nil, err
	}
	if ep != nil {
		d.ctl = ep
	}
	// The generic engine is push-only: structured messages carry data the
	// pull sweep cannot recompute from parent state alone. Explicit pull is
	// rejected; auto falls back to push.
	if d.opt.Direction == DirectionPull {
		return nil, &InvalidOptionsError{Field: "Direction", Reason: "pull traversal requires a float32 application implementing core.PullerF32; the generic engine is push-only"}
	}
	d.buf = csb.NewGenericBuffer[T](g.NumVertices(), 4*d.opt.Threads)
	if d.opt.Scheme == SchemePipelined {
		var err error
		if d.pipe, err = pipeline.Acquire[T](d.opt.Workers, d.opt.Movers, d.opt.GenBatchSize); err != nil {
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

// direction implements engine: the generic engine is push-only and its
// samples carry no direction label.
func (d *deviceGeneric[T]) direction() string { return "" }

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
		d.maybePanic(fault.PhaseGenerate)
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
	d.countGenerate(active, st, c)
	if d.opt.Scheme == SchemeLocking {
		d.countContention(d.buf.ColumnFills(d.fillScratch[:0]), c)
		c.ColumnsUsed += int64(len(d.fillScratch))
	}
	return nil
}

// begin implements engine. The list buffer's reset is not priced.
func (d *deviceGeneric[T]) begin() int64 {
	d.buf.Reset()
	return 0
}

// exchange implements engine: the calling goroutine is the only writer of
// the buffer during the exchange, so received messages take the unlocked
// insert.
func (d *deviceGeneric[T]) exchange(activeLocal int64, c *machine.Counters, pt *PhaseTimes) (int64, error) {
	recv, activeRemote, err := exchangeRemote(&d.rankBase, d.ep, d.remote, activeLocal, c, pt)
	for _, m := range recv {
		d.buf.InsertOwned(m.Dst, m.Val)
	}
	return activeRemote, err
}

// reduce implements engine: it walks every vertex with messages, reduces its
// list via the user Process, applies Update, and returns the next active
// set. The two steps are fused over the vertex-chunk schedule (each vertex's
// messages are consumed exactly once), but counted as two steps, matching
// the runtime structure; the fused wall time is charged to process (see
// docs/observability.md).
func (d *deviceGeneric[T]) reduce(c *machine.Counters) ([]graph.VertexID, error) {
	if d.opt.Metrics != nil {
		defer func(t time.Time) { d.wall.process = time.Since(t).Nanoseconds() }(time.Now())
	}
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
			d.maybePanic(fault.PhaseProcess)
			d.maybePanic(fault.PhaseUpdate)
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

// phaseTimes implements engine.
func (d *deviceGeneric[T]) phaseTimes(c machine.Counters) PhaseTimes { return d.price(c, false) }

// RunGeneric executes a structured-message app on a single modeled device.
func RunGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options) (Result, error) {
	if err := validateRunArgs(app, g); err != nil {
		return Result{}, err
	}
	d, err := newDeviceGeneric(app, g, opt, 0, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return runSingle(d, app.Init(g), IsFixedActive(app))
}

// RunGenericHetero executes a structured-message app across a group of
// N >= 2 modeled devices through the same supervisor as RunF32Hetero:
// exchange deadlines, fault injection, quorum blame and partition fencing
// apply alike, and with checkpointing (the app must implement
// checkpoint.Snapshotter) a rank failure degrades, heals and resumes exactly
// as there. Without checkpointing a rank failure is returned as an error.
func RunGenericHetero[T any](app AppGeneric[T], g *graph.CSR, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	return runGroup(app, g, assign, deviceOpts, func(o Options, rank int, owners []int32, ep *comm.Endpoint[T]) (engine, error) {
		return newDeviceGeneric(app, g, o, rank, owners, ep)
	})
}
