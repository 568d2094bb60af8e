// Package pipeline implements the two message-generation schemes of §IV-C.
//
// Locking: every thread runs the user's generate function for its vertices
// and inserts the resulting messages straight into the message buffer; the
// buffer's per-column critical section is paid per message, and collides
// when two threads target the same destination column.
//
// Pipelined: threads are split into workers and movers. Workers generate
// messages into private SPSC queues — one queue per (worker, mover) pair —
// choosing the queue by destination class (dst mod movers). Mover m drains
// queue class m of every worker and inserts into the buffer. Because all
// messages for a destination flow through exactly one mover, a buffer
// column is only ever touched by one thread, and no per-insert locking is
// needed; computation and memory traffic overlap across the two stages.
//
// The worker→mover handoff runs at a configurable batch granularity:
// workers accumulate one small local buffer per mover class and flush it
// through queue.PushBatch when it reaches the batch size (and at every
// scheduler range boundary, so movers never wait on a half-filled buffer
// across a scheduling gap); movers drain whole batches with queue.PopBatch
// and hand them to a BatchSink. Batch size 1 reproduces the paper's
// per-element handoff exactly. See docs/pipeline.md for the full design.
package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"hetgraph/internal/graph"
	"hetgraph/internal/queue"
	"hetgraph/internal/sched"
)

// Message is one in-flight value pair <dst_id, msg_value>.
type Message[T any] struct {
	Dst graph.VertexID
	Val T
}

// Gen is the application's message-generation callback: it must call emit
// for every message vertex v sends (the paper's send_messages primitive
// inside generate_messages).
type Gen[T any] func(v graph.VertexID, emit func(dst graph.VertexID, val T))

// BatchSink receives one drained batch of messages. It is called only by
// the single mover that owns every destination in the batch (all dsts share
// one class, dst mod movers), so it may insert without locking. The slices
// are scratch buffers reused by the mover after the call returns and must
// not be retained.
type BatchSink[T any] func(dsts []graph.VertexID, vals []T)

// Stats reports what a generation run actually did; the cost model prices
// these events.
type Stats struct {
	// Messages generated (== edges traversed for the evaluated apps).
	Messages int64
	// TaskFetches performed against the dynamic scheduler.
	TaskFetches int64
	// QueueOps counts per-element SPSC cursor publications under the
	// pipelined scheme with batch size 1. Every message is pushed exactly
	// once by its worker and popped exactly once by its class's mover, so
	// QueueOps == 2*Messages by construction — the value is derived from
	// that identity, not counted separately. Zero for the locking scheme
	// and for batched runs.
	QueueOps int64
	// QueueBatchOps counts batched cursor publications — PushBatch/PopBatch
	// calls that moved at least one message — under the pipelined scheme
	// with batch size > 1. Each publication amortizes the release/acquire
	// handshake over up to the batch size in messages, which is why the
	// cost model prices these far below per-element ops.
	QueueBatchOps int64
}

// queueCap is the per-(worker,mover) ring capacity. Small enough that
// backpressure engages when movers lag, large enough to amortize handoff.
const queueCap = 1024

// DefaultBatch is the recommended handoff batch size for batched pipelined
// runs: large enough to amortize the cursor handshake ~64x, small enough
// that a worker's per-class buffers stay cache-resident and movers are
// never starved for long. The autotuner searches around this value.
const DefaultBatch = 64

// RunLocking generates messages for the active vertices on `threads`
// goroutines, inserting each message immediately through insert, which must
// be safe for concurrent use (the CSB's locking path).
func RunLocking[T any](active []graph.VertexID, threads int, gen Gen[T], insert func(graph.VertexID, T)) (Stats, error) {
	if threads < 1 {
		return Stats{}, fmt.Errorf("pipeline: threads %d < 1", threads)
	}
	s, err := sched.New(int64(len(active)), sched.ChunkFor(int64(len(active)), threads))
	if err != nil {
		return Stats{}, err
	}
	var msgs atomic.Int64
	var wg sync.WaitGroup
	var pc PanicCollector
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pc.Capture()
			var local int64
			emit := func(dst graph.VertexID, val T) {
				insert(dst, val)
				local++
			}
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					gen(active[i], emit)
				}
			}
			msgs.Add(local)
		}()
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return Stats{}, err
	}
	return Stats{Messages: msgs.Load(), TaskFetches: s.Fetches()}, nil
}

// PanicCollector contains panics escaping user functions on worker
// goroutines: without it, a panicking generate_messages would kill the
// process (or deadlock the movers waiting for workers that died). The first
// panic is kept and surfaced as an error from the generation call. The
// engines reuse it to guard their process/update goroutine pools.
type PanicCollector struct {
	once sync.Once
	val  atomic.Value
}

// Capture must be deferred in each goroutine that runs user code.
func (p *PanicCollector) Capture() {
	if r := recover(); r != nil {
		p.once.Do(func() { p.val.Store(fmt.Sprintf("%v", r)) })
	}
}

// Err returns the captured panic as an error, or nil.
func (p *PanicCollector) Err() error {
	if v := p.val.Load(); v != nil {
		return fmt.Errorf("pipeline: user function panicked: %s", v)
	}
	return nil
}

// Pipelined is a reusable worker/mover generation engine. What scales with
// workers×movers is allocated once, at construction: the SPSC ring matrix
// (one header slice, one backing slab per worker) and each worker's
// per-class accumulation buffers. Supersteps reuse the engine directly;
// jobs reuse it through Acquire/Release. Reuse is safe because run leaves
// every ring empty, on success and on error, and every worker truncates its
// own buffers before generating.
type Pipelined[T any] struct {
	workers, movers, batch int
	// rings[w*movers+m] is written only by worker w and read only by
	// mover m.
	rings []queue.SPSC[Message[T]]
	// bufs[w*movers+m] is worker w's accumulation buffer for mover class
	// m (capacity batch; each worker's buffers share one allocation).
	bufs [][]Message[T]
	// pooled is set (under poolMu) while the engine sits in the pool; it
	// turns a second Release of the same engine into a no-op.
	pooled bool
}

// NewPipelined allocates the engine for a fixed worker/mover split and
// handoff batch size (1 = the paper's per-element handoff).
func NewPipelined[T any](workers, movers, batch int) (*Pipelined[T], error) {
	if workers < 1 || movers < 1 {
		return nil, fmt.Errorf("pipeline: need >=1 worker and mover, got %d/%d", workers, movers)
	}
	if batch < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d < 1", batch)
	}
	p := &Pipelined[T]{
		workers: workers, movers: movers, batch: batch,
		rings: make([]queue.SPSC[Message[T]], workers*movers),
		bufs:  make([][]Message[T], workers*movers),
	}
	for w := 0; w < workers; w++ {
		// One ring slab per worker (about 500 KB at the MIC split), not one
		// for the whole matrix: a single 90 MB allocation lands on the heap
		// before the collector can start, overshooting its goal, and raised
		// the PageRank benchmark's peak RSS by a quarter; per-worker slabs
		// keep the GC pacing of separately allocated rings.
		if err := queue.InitSlab(p.rings[w*movers:(w+1)*movers], queueCap); err != nil {
			return nil, err
		}
		// One allocation per worker keeps a worker's buffers contiguous and
		// apart from its neighbours'.
		slab := make([]Message[T], movers*batch)
		for m := 0; m < movers; m++ {
			lo := m * batch
			p.bufs[w*movers+m] = slab[lo : lo : lo+batch]
		}
	}
	return p, nil
}

// poolKey identifies one engine shape: engines are interchangeable only
// when the split, the batch size and the message type all agree.
type poolKey struct {
	workers, movers, batch int
	msg                    reflect.Type
}

// idleEngine is one pooled engine and the GC generation it was released in.
type idleEngine struct {
	p   any // *Pipelined[T] for the key's T
	gen uint64
}

// The process-wide engine pool: per shape, a LIFO list of idle engines.
// A plain list rather than a sync.Pool: sync.Pool parks the last engine Put
// on a P in that P's private slot, invisible to a Get on any other P, so a
// job acquiring three engines on another P than the one that released them
// built a fresh engine (about 90 MB at the MIC split) while an idle one sat
// parked. Idle engines still age out like a sync.Pool's: one left idle for
// two GC cycles is dropped, so an idle process does not keep its rings.
var (
	poolMu sync.Mutex
	pools  = map[poolKey][]idleEngine{}
	// gcGen counts the GC cycles the sweeper has observed.
	gcGen uint64
)

func init() { armSweep() }

// gcSentinel is the object whose finalizer observes GC cycles; the pointer
// field keeps it off the tiny allocator, whose objects may never finalize.
type gcSentinel struct{ _ *byte }

// armSweep schedules sweepPools after the next GC cycle, and re-arms itself
// from there, once per cycle for the life of the process.
func armSweep() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		sweepPools()
		armSweep()
	})
}

// sweepPools drops every engine that has been idle for two GC cycles.
func sweepPools() {
	poolMu.Lock()
	defer poolMu.Unlock()
	gcGen++
	for key, idle := range pools {
		kept := idle[:0]
		for _, e := range idle {
			if gcGen-e.gen < 2 {
				kept = append(kept, e)
			}
		}
		clear(idle[len(kept):])
		if len(kept) == 0 {
			delete(pools, key)
		} else {
			pools[key] = kept
		}
	}
}

// Acquire returns an idle engine of the given shape from the process-wide
// pool, or a new one (NewPipelined) when none is idle. Pair it with Release
// once the engine is no longer in use.
func Acquire[T any](workers, movers, batch int) (*Pipelined[T], error) {
	key := poolKey{workers, movers, batch, reflect.TypeFor[T]()}
	poolMu.Lock()
	if idle := pools[key]; len(idle) > 0 {
		p := idle[len(idle)-1].p.(*Pipelined[T])
		idle[len(idle)-1] = idleEngine{}
		pools[key] = idle[:len(idle)-1]
		p.pooled = false
		poolMu.Unlock()
		return p, nil
	}
	poolMu.Unlock()
	return NewPipelined[T](workers, movers, batch)
}

// Release returns the engine to the pool for a later Acquire of the same
// shape. The caller must not use the engine afterwards, and must only
// release an engine whose last run has returned. An engine whose rings are
// not all empty (which a returned run never leaves) is dropped rather than
// pooled; releasing twice is a no-op.
func (p *Pipelined[T]) Release() {
	for i := range p.rings {
		if !p.rings[i].Empty() {
			return
		}
	}
	key := poolKey{p.workers, p.movers, p.batch, reflect.TypeFor[T]()}
	poolMu.Lock()
	defer poolMu.Unlock()
	if p.pooled {
		return
	}
	p.pooled = true
	pools[key] = append(pools[key], idleEngine{p: p, gen: gcGen})
}

// Batch returns the engine's handoff batch size.
func (p *Pipelined[T]) Batch() int { return p.batch }

// RunPipelined is the one-shot per-element form of Pipelined.Run.
func RunPipelined[T any](active []graph.VertexID, workers, movers int, gen Gen[T], insertOwned func(graph.VertexID, T)) (Stats, error) {
	p, err := NewPipelined[T](workers, movers, 1)
	if err != nil {
		return Stats{}, err
	}
	return p.Run(active, gen, insertOwned)
}

// RunPipelinedBatched is the one-shot form of Pipelined.RunBatched.
func RunPipelinedBatched[T any](active []graph.VertexID, workers, movers, batch int, gen Gen[T], sink BatchSink[T]) (Stats, error) {
	p, err := NewPipelined[T](workers, movers, batch)
	if err != nil {
		return Stats{}, err
	}
	return p.RunBatched(active, gen, sink)
}

// Run generates messages with the engine's worker and mover goroutines,
// delivering them one at a time: insertOwned is called only by the single
// mover that owns the destination's class (dst mod movers), so it may be
// lock-free; column allocation inside the buffer remains the only
// synchronized operation, exactly as in §IV-C.
func (p *Pipelined[T]) Run(active []graph.VertexID, gen Gen[T], insertOwned func(graph.VertexID, T)) (Stats, error) {
	return p.run(active, gen, func(dsts []graph.VertexID, vals []T) {
		for i, dst := range dsts {
			insertOwned(dst, vals[i])
		}
	})
}

// RunBatched generates messages and delivers them to sink in whole drained
// batches, enabling batch-insert paths in the message buffer.
func (p *Pipelined[T]) RunBatched(active []graph.VertexID, gen Gen[T], sink BatchSink[T]) (Stats, error) {
	return p.run(active, gen, sink)
}

func (p *Pipelined[T]) run(active []graph.VertexID, gen Gen[T], sink BatchSink[T]) (Stats, error) {
	workers, movers, batch, rings := p.workers, p.movers, p.batch, p.rings
	s, err := sched.New(int64(len(active)), sched.ChunkFor(int64(len(active)), workers))
	if err != nil {
		return Stats{}, err
	}
	var (
		msgs        atomic.Int64
		pubs        atomic.Int64
		workersLeft atomic.Int64
		wg          sync.WaitGroup
		pc          PanicCollector
	)
	workersLeft.Store(int64(workers))

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer workersLeft.Add(-1)
			defer pc.Capture()
			mine := rings[w*movers : (w+1)*movers]
			// Per-mover-class accumulation buffers: the ring cursors are
			// published once per flush instead of once per message. They
			// are truncated first, so residue a panicked run left behind
			// can never reach this run's movers.
			bufs := p.bufs[w*movers : (w+1)*movers]
			for m := range bufs {
				bufs[m] = bufs[m][:0]
			}
			var local, localPubs int64
			flush := func(m int) {
				if len(bufs[m]) == 0 {
					return
				}
				localPubs += int64(mine[m].PushBatch(bufs[m]))
				bufs[m] = bufs[m][:0]
			}
			emit := func(dst graph.VertexID, val T) {
				// "queue_id = dst_id mod num_mover_threads"
				m := int(dst) % movers
				bufs[m] = append(bufs[m], Message[T]{Dst: dst, Val: val})
				if len(bufs[m]) >= batch {
					flush(m)
				}
				local++
			}
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					gen(active[i], emit)
				}
				// Range boundary: flush every class so buffered messages
				// never sit behind a scheduling gap. The flushes also keep
				// the workersLeft decrement (deferred above) ordered after
				// the last push, which the movers' final drain relies on.
				for m := range bufs {
					flush(m)
				}
			}
			msgs.Add(local)
			pubs.Add(localPubs)
		}(w)
	}

	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			discard := func() {
				for w := 0; w < workers; w++ {
					discardAll(&rings[w*movers+m])
				}
			}
			func() {
				defer pc.Capture()
				scratch := make([]Message[T], batch)
				dsts := make([]graph.VertexID, batch)
				vals := make([]T, batch)
				var localPubs int64
				defer func() { pubs.Add(localPubs) }()
				drain := func() int64 {
					var n int64
					for w := 0; w < workers; w++ {
						q := &rings[w*movers+m]
						for {
							k := q.PopBatch(scratch)
							if k == 0 {
								break
							}
							localPubs++
							for i := 0; i < k; i++ {
								dsts[i] = scratch[i].Dst
								vals[i] = scratch[i].Val
							}
							sink(dsts[:k], vals[:k])
							n += int64(k)
						}
					}
					return n
				}
				for {
					if drain() > 0 {
						continue
					}
					if workersLeft.Load() == 0 {
						// Workers finished before our empty sweep; one final
						// drain observes all their pushes (the counter
						// decrement is ordered after the last flush).
						drain()
						return
					}
					runtime.Gosched()
				}
			}()
			// Reached after a normal return (queues already empty) or a
			// panic in the sink. In the panic case, keep discarding this
			// mover's classes so no worker blocks forever on a full ring.
			for workersLeft.Load() != 0 {
				discard()
				runtime.Gosched()
			}
			discard()
		}(m)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		// Drain any residue so the queues are clean for the next run.
		for i := range rings {
			discardAll(&rings[i])
		}
		return Stats{}, err
	}
	st := Stats{Messages: msgs.Load(), TaskFetches: s.Fetches()}
	if batch == 1 {
		// Per-element handoff: one push and one pop per message, so the op
		// count is an identity, not something to count at runtime.
		st.QueueOps = 2 * st.Messages
	} else {
		st.QueueBatchOps = pubs.Load()
	}
	return st, nil
}

// discardAll pops and drops everything buffered in q.
func discardAll[T any](q *queue.SPSC[T]) {
	for {
		if _, ok := q.TryPop(); !ok {
			return
		}
	}
}
