// Package queue provides the bounded single-producer single-consumer ring
// buffers that carry messages from worker threads to mover threads in the
// pipelined message-generation scheme (§IV-C). The pipelining design
// guarantees "each message queue is only written by only one thread, as well
// as read by only one thread", which is exactly the SPSC contract: the ring
// needs no locks, only two monotone cursors with release/acquire ordering.
//
// Two transfer granularities are offered. The per-element operations
// (TryPush/Push/TryPop) publish a cursor per message — one release store
// plus, on a miss, one acquire load, paid 2n times for n messages. The
// batched operations (TryPushBatch/PushBatch/PopBatch) move a run of
// elements under a single cursor publication, amortizing the cross-core
// handshake over the batch. Both sides additionally keep a *cached* copy of
// the opposite cursor (the producer caches head, the consumer caches tail)
// and only re-read the shared atomic when the cache says the ring looks
// full/empty, so an uncontended transfer touches the peer's cache line at
// most once per batch rather than once per element.
package queue

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// SPSC is a bounded lock-free single-producer single-consumer ring.
// Exactly one goroutine may call the push-side methods and exactly one may
// call the pop-side methods.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    [40]byte // keep the cursor lines apart from the buffer header
	// Consumer-owned line: the consumer cursor plus the consumer's cached
	// copy of tail (only the consumer goroutine touches tailCache).
	head      atomic.Uint64
	tailCache uint64
	_         [48]byte
	// Producer-owned line: the producer cursor plus the producer's cached
	// copy of head (only the producer goroutine touches headCache).
	tail      atomic.Uint64
	headCache uint64
	_         [48]byte
}

// NewSPSC creates a ring with the given capacity, rounded up to a power of
// two (minimum 2).
func NewSPSC[T any](capacity int) (*SPSC[T], error) {
	size, err := ringSize(capacity)
	if err != nil {
		return nil, err
	}
	return &SPSC[T]{buf: make([]T, size), mask: uint64(size - 1)}, nil
}

// InitSlab makes each ring of rings, which must be zero values, a ring of
// the given capacity (rounded as in NewSPSC), all carved from one backing
// slab: one allocation for len(rings) rings. Each ring's storage is a
// 3-index slice, so no ring can reach its neighbour's cells. The rings are
// independent SPSC queues, used in place (&rings[i]) and never copied.
func InitSlab[T any](rings []SPSC[T], capacity int) error {
	size, err := ringSize(capacity)
	if err != nil {
		return err
	}
	slab := make([]T, len(rings)*size)
	for i := range rings {
		lo := i * size
		rings[i].buf = slab[lo : lo+size : lo+size]
		rings[i].mask = uint64(size - 1)
	}
	return nil
}

// ringSize rounds capacity up to a power of two, minimum 2.
func ringSize(capacity int) (int, error) {
	if capacity < 1 {
		return 0, fmt.Errorf("queue: capacity %d < 1", capacity)
	}
	size := 2
	for size < capacity {
		size <<= 1
	}
	return size, nil
}

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// TryPush enqueues v if there is room, reporting success.
func (q *SPSC[T]) TryPush(v T) bool {
	tail := q.tail.Load()
	if tail-q.headCache >= uint64(len(q.buf)) {
		q.headCache = q.head.Load()
		if tail-q.headCache >= uint64(len(q.buf)) {
			return false
		}
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1)
	return true
}

// Push enqueues v, yielding the processor while the ring is full. This is
// the worker-side backpressure of the pipeline: when movers fall behind,
// workers stall, which the cost model charges to the slower stage.
func (q *SPSC[T]) Push(v T) {
	for !q.TryPush(v) {
		runtime.Gosched()
	}
}

// TryPushBatch enqueues a prefix of vs — as many elements as currently fit —
// and returns how many were enqueued. The tail cursor is published exactly
// once when anything was enqueued, and not at all otherwise.
func (q *SPSC[T]) TryPushBatch(vs []T) int {
	if len(vs) == 0 {
		return 0
	}
	tail := q.tail.Load()
	free := uint64(len(q.buf)) - (tail - q.headCache)
	if free < uint64(len(vs)) {
		q.headCache = q.head.Load()
		free = uint64(len(q.buf)) - (tail - q.headCache)
		if free == 0 {
			return 0
		}
	}
	n := len(vs)
	if uint64(n) > free {
		n = int(free)
	}
	start := int(tail & q.mask)
	copied := copy(q.buf[start:], vs[:n])
	if copied < n {
		copy(q.buf, vs[copied:n]) // wrap around the ring boundary
	}
	q.tail.Store(tail + uint64(n))
	return n
}

// PushBatch enqueues all of vs, yielding while the ring is full, and
// returns the number of cursor publications it performed — 1 when the whole
// batch fit at once, more when backpressure split it.
func (q *SPSC[T]) PushBatch(vs []T) int {
	pubs := 0
	for len(vs) > 0 {
		n := q.TryPushBatch(vs)
		if n == 0 {
			runtime.Gosched()
			continue
		}
		pubs++
		vs = vs[n:]
	}
	return pubs
}

// TryPop dequeues the oldest element, reporting whether one was available.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tailCache {
		q.tailCache = q.tail.Load()
		if head == q.tailCache {
			return zero, false
		}
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // release references for GC
	q.head.Store(head + 1)
	return v, true
}

// PopBatch dequeues up to len(dst) elements into dst and returns how many
// were dequeued. The head cursor is published exactly once when anything
// was dequeued. A return of 0 means the ring was empty (or dst was).
func (q *SPSC[T]) PopBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	head := q.head.Load()
	avail := q.tailCache - head
	if avail < uint64(len(dst)) {
		q.tailCache = q.tail.Load()
		avail = q.tailCache - head
		if avail == 0 {
			return 0
		}
	}
	n := len(dst)
	if uint64(n) > avail {
		n = int(avail)
	}
	var zero T
	for i := 0; i < n; i++ {
		idx := (head + uint64(i)) & q.mask
		dst[i] = q.buf[idx]
		q.buf[idx] = zero // release references for GC
	}
	q.head.Store(head + uint64(n))
	return n
}

// Len returns the number of buffered elements (approximate under
// concurrency, exact when quiescent).
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Empty reports whether the ring is empty.
func (q *SPSC[T]) Empty() bool { return q.Len() == 0 }
