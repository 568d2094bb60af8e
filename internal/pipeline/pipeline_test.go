package pipeline

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetgraph/internal/csb"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
)

// fanoutGen emits one message per out-edge of v, value = float32(v).
func fanoutGen(g *graph.CSR) Gen[float32] {
	return func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for _, d := range g.Neighbors(v) {
			emit(d, float32(v))
		}
	}
}

func allVertices(n int) []graph.VertexID {
	vs := make([]graph.VertexID, n)
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	return vs
}

func TestRunLockingValidation(t *testing.T) {
	if _, err := RunLocking[float32](nil, 0, nil, nil); err == nil {
		t.Error("accepted zero threads")
	}
}

func TestRunPipelinedValidation(t *testing.T) {
	if _, err := RunPipelined[float32](nil, 0, 1, nil, nil); err == nil {
		t.Error("accepted zero workers")
	}
	if _, err := RunPipelined[float32](nil, 1, 0, nil, nil); err == nil {
		t.Error("accepted zero movers")
	}
}

func TestLockingGeneratesAllMessages(t *testing.T) {
	g := graph.PaperExample()
	var mu sync.Mutex
	received := map[graph.VertexID][]float32{}
	stats, err := RunLocking(allVertices(16), 4, fanoutGen(g), func(dst graph.VertexID, v float32) {
		mu.Lock()
		received[dst] = append(received[dst], v)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 28 {
		t.Fatalf("Messages = %d, want 28 (every edge)", stats.Messages)
	}
	if stats.TaskFetches < 1 {
		t.Error("no task fetches recorded")
	}
	if stats.QueueOps != 0 {
		t.Error("locking scheme recorded queue ops")
	}
	in := g.InDegrees()
	for v := 0; v < 16; v++ {
		if len(received[graph.VertexID(v)]) != int(in[v]) {
			t.Errorf("vertex %d received %d, want %d", v, len(received[graph.VertexID(v)]), in[v])
		}
	}
}

func TestPipelinedGeneratesAllMessages(t *testing.T) {
	g := graph.PaperExample()
	const movers = 3
	// Per-mover receive logs; no locks, validating the ownership contract.
	received := make([]map[graph.VertexID]int, 16)
	for i := range received {
		received[i] = map[graph.VertexID]int{}
	}
	var mu [movers]sync.Mutex // only guards test bookkeeping per mover class
	stats, err := RunPipelined(allVertices(16), 5, movers, fanoutGen(g), func(dst graph.VertexID, v float32) {
		c := int(dst) % movers
		mu[c].Lock()
		received[dst][dst]++
		mu[c].Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 28 {
		t.Fatalf("Messages = %d, want 28", stats.Messages)
	}
	if stats.QueueOps != 56 {
		t.Fatalf("QueueOps = %d, want 56 (28 pushes + 28 pops)", stats.QueueOps)
	}
	in := g.InDegrees()
	for v := 0; v < 16; v++ {
		if received[v][graph.VertexID(v)] != int(in[v]) {
			t.Errorf("vertex %d received %d, want %d", v, received[v][graph.VertexID(v)], in[v])
		}
	}
}

func TestPipelinedDestinationOwnership(t *testing.T) {
	// Record which goroutine inserts each destination class; each class
	// must be touched by exactly one mover. We detect violations by
	// checking data-race-free counters per class without synchronization
	// under -race.
	g, err := gridGraph(40)
	if err != nil {
		t.Fatal(err)
	}
	const movers = 4
	counts := make([]int64, movers) // indexed by dst%movers, no locks: SPSC ownership must protect this
	_, err = RunPipelined(allVertices(g.NumVertices()), 6, movers, fanoutGen(g), func(dst graph.VertexID, v float32) {
		counts[int(dst)%movers]++
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != g.NumEdges() {
		t.Fatalf("inserted %d, want %d", total, g.NumEdges())
	}
}

// gridGraph builds an n x n 4-neighbor grid (deterministic, mid-size).
func gridGraph(n int) (*graph.CSR, error) {
	b := graph.NewBuilder(n*n, false)
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if r+1 < n {
				b.AddEdge(id(r, c), id(r+1, c), 0)
			}
			if c+1 < n {
				b.AddEdge(id(r, c), id(r, c+1), 0)
			}
		}
	}
	return b.Build()
}

func TestPipelinedIntoCSBMatchesLocking(t *testing.T) {
	// End-to-end: both schemes must produce identical reductions in the
	// real CSB.
	cfgGraph := graph.PaperExample()
	inf := float32(math.Inf(1))
	build := func() *csb.Buffer {
		b, err := csb.Build(cfgGraph, csb.Config{Width: 4, K: 2, Identity: inf, Mode: csb.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	genFn := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for i, d := range cfgGraph.Neighbors(v) {
			emit(d, float32(v)*10+float32(i))
		}
	}
	lockBuf := build()
	if _, err := RunLocking(allVertices(16), 4, genFn, lockBuf.Insert); err != nil {
		t.Fatal(err)
	}
	pipeBuf := build()
	if _, err := RunPipelined(allVertices(16), 3, 2, genFn, pipeBuf.Insert); err != nil {
		t.Fatal(err)
	}
	redLock := reduceMinAll(lockBuf)
	redPipe := reduceMinAll(pipeBuf)
	if len(redLock) != len(redPipe) {
		t.Fatalf("destination sets differ: %d vs %d", len(redLock), len(redPipe))
	}
	for v, want := range redLock {
		if redPipe[v] != want {
			t.Errorf("vertex %d: pipe %v, lock %v", v, redPipe[v], want)
		}
	}
}

func reduceMinAll(b *csb.Buffer) map[graph.VertexID]float32 {
	out := map[graph.VertexID]float32{}
	var lanes []csb.Lane
	for t := 0; t < b.NumTasks(); t++ {
		arr, rows := b.Task(t)
		if rows == 0 {
			continue
		}
		arr.ReduceMin(rows)
		lanes = b.Lanes(t, lanes[:0])
		for _, l := range lanes {
			out[l.Vertex] = arr.At(0, l.Lane)
		}
	}
	return out
}

func TestEmptyActiveSet(t *testing.T) {
	for _, scheme := range []string{"lock", "pipe"} {
		var stats Stats
		var err error
		insert := func(graph.VertexID, float32) { t.Error("insert called with no active vertices") }
		if scheme == "lock" {
			stats, err = RunLocking(nil, 4, fanoutGen(graph.PaperExample()), insert)
		} else {
			stats, err = RunPipelined(nil, 4, 2, fanoutGen(graph.PaperExample()), insert)
		}
		if err != nil {
			t.Fatal(err)
		}
		if stats.Messages != 0 {
			t.Errorf("%s: messages = %d", scheme, stats.Messages)
		}
	}
}

func TestBackpressureStress(t *testing.T) {
	// Many messages to few destinations through tiny mover capacity: the
	// rings must wrap many times without losing messages.
	if testing.Short() {
		t.Skip("stress test")
	}
	n := 400
	b := graph.NewBuilder(n, false)
	rng := rand.New(rand.NewSource(3))
	for v := 0; v < n; v++ {
		for k := 0; k < 50; k++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID(rng.Intn(8)), 0) // 8 hot destinations
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var counts [8]int64
	stats, err := RunPipelined(allVertices(n), 8, 2, fanoutGen(g), func(dst graph.VertexID, v float32) {
		counts[dst]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != int64(n*50) {
		t.Fatalf("Messages = %d, want %d", stats.Messages, n*50)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != int64(n*50) {
		t.Fatalf("delivered %d, want %d", sum, n*50)
	}
}

func TestLockingContainsUserPanic(t *testing.T) {
	g := graph.PaperExample()
	genFn := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		if v == 9 {
			panic("boom at vertex 9")
		}
		for _, d := range g.Neighbors(v) {
			emit(d, 0)
		}
	}
	_, err := RunLocking(allVertices(16), 4, genFn, func(graph.VertexID, float32) {})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	if !strings.Contains(err.Error(), "boom at vertex 9") {
		t.Fatalf("error lost panic message: %v", err)
	}
}

func TestPipelinedContainsWorkerPanic(t *testing.T) {
	g := graph.PaperExample()
	genFn := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		if v == 5 {
			panic("worker boom")
		}
		for _, d := range g.Neighbors(v) {
			emit(d, 0)
		}
	}
	_, err := RunPipelined(allVertices(16), 3, 2, genFn, func(graph.VertexID, float32) {})
	if err == nil || !strings.Contains(err.Error(), "worker boom") {
		t.Fatalf("worker panic not surfaced: %v", err)
	}
}

func TestPipelinedContainsMoverPanic(t *testing.T) {
	// A panicking insertOwned (mover side) must not deadlock the workers,
	// even under enough message volume to fill the rings.
	n := 300
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		for k := 0; k < 40; k++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID((v+k+1)%n), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	insert := func(dst graph.VertexID, _ float32) {
		if count.Add(1) == 100 {
			panic("mover boom")
		}
	}
	_, err = RunPipelined(allVertices(n), 4, 2, fanoutGen(g), insert)
	if err == nil || !strings.Contains(err.Error(), "mover boom") {
		t.Fatalf("mover panic not surfaced: %v", err)
	}
}

func TestNewPipelinedRejectsBadBatch(t *testing.T) {
	if _, err := NewPipelined[float32](2, 2, 0); err == nil {
		t.Error("accepted batch size 0")
	}
	if _, err := NewPipelined[float32](2, 2, -4); err == nil {
		t.Error("accepted negative batch size")
	}
}

func TestBatchedGeneratesAllMessages(t *testing.T) {
	g := graph.PaperExample()
	const movers = 3
	received := make(map[graph.VertexID]int, 16)
	var mu sync.Mutex
	stats, err := RunPipelinedBatched(allVertices(16), 5, movers, 4, fanoutGen(g), func(dsts []graph.VertexID, vals []float32) {
		if len(dsts) != len(vals) {
			t.Errorf("batch slices disagree: %d dsts, %d vals", len(dsts), len(vals))
		}
		mu.Lock()
		for i, dst := range dsts {
			if int(dst)%movers != int(dsts[0])%movers {
				t.Errorf("batch mixes mover classes: dst %d with dst %d", dst, dsts[0])
			}
			_ = vals[i]
			received[dst]++
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 28 {
		t.Fatalf("Messages = %d, want 28", stats.Messages)
	}
	if stats.QueueOps != 0 {
		t.Errorf("batched run reported per-element QueueOps = %d", stats.QueueOps)
	}
	if stats.QueueBatchOps < 1 {
		t.Errorf("batched run reported no batch publications")
	}
	if stats.QueueBatchOps >= 2*stats.Messages {
		t.Errorf("QueueBatchOps = %d, not cheaper than per-element 2*Messages = %d", stats.QueueBatchOps, 2*stats.Messages)
	}
	in := g.InDegrees()
	for v := 0; v < 16; v++ {
		if received[graph.VertexID(v)] != int(in[v]) {
			t.Errorf("vertex %d received %d, want %d", v, received[graph.VertexID(v)], in[v])
		}
	}
}

func TestBatchedAmortizesPublications(t *testing.T) {
	// On a heavy workload, batched cursor publications must be a small
	// fraction of the per-element count — that is the whole point.
	g, err := gridGraph(60)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	var delivered atomic.Int64
	stats, err := RunPipelinedBatched(allVertices(g.NumVertices()), 4, 2, batch, fanoutGen(g), func(dsts []graph.VertexID, vals []float32) {
		delivered.Add(int64(len(dsts)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != stats.Messages {
		t.Fatalf("delivered %d, stats say %d", delivered.Load(), stats.Messages)
	}
	perElement := 2 * stats.Messages
	if stats.QueueBatchOps*4 > perElement {
		t.Errorf("QueueBatchOps = %d, want < 1/4 of per-element %d", stats.QueueBatchOps, perElement)
	}
}

func TestBatchedIntoCSBMatchesLocking(t *testing.T) {
	cfgGraph := graph.PaperExample()
	inf := float32(math.Inf(1))
	build := func() *csb.Buffer {
		b, err := csb.Build(cfgGraph, csb.Config{Width: 4, K: 2, Identity: inf, Mode: csb.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	genFn := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for i, d := range cfgGraph.Neighbors(v) {
			emit(d, float32(v)*10+float32(i))
		}
	}
	lockBuf := build()
	if _, err := RunLocking(allVertices(16), 4, genFn, lockBuf.Insert); err != nil {
		t.Fatal(err)
	}
	batchBuf := build()
	if _, err := RunPipelinedBatched(allVertices(16), 3, 2, 8, genFn, batchBuf.InsertOwnedBatch); err != nil {
		t.Fatal(err)
	}
	redLock := reduceMinAll(lockBuf)
	redBatch := reduceMinAll(batchBuf)
	if len(redLock) != len(redBatch) {
		t.Fatalf("destination sets differ: %d vs %d", len(redLock), len(redBatch))
	}
	for v, want := range redLock {
		if redBatch[v] != want {
			t.Errorf("vertex %d: batched %v, lock %v", v, redBatch[v], want)
		}
	}
}

func TestBatchedContainsSinkPanic(t *testing.T) {
	// A panicking sink (mover side) must not deadlock the workers under
	// batched handoff, even with enough volume to fill the rings.
	n := 300
	b := graph.NewBuilder(n, false)
	for v := 0; v < n; v++ {
		for k := 0; k < 40; k++ {
			b.AddEdge(graph.VertexID(v), graph.VertexID((v+k+1)%n), 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	sink := func(dsts []graph.VertexID, _ []float32) {
		if count.Add(int64(len(dsts))) >= 100 {
			panic("sink boom")
		}
	}
	_, err = RunPipelinedBatched(allVertices(n), 4, 2, 32, fanoutGen(g), sink)
	if err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Fatalf("sink panic not surfaced: %v", err)
	}
}

func TestBatchedReusableAfterPanic(t *testing.T) {
	g := graph.PaperExample()
	p, err := NewPipelined[float32](3, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	bad := func(v graph.VertexID, emit func(graph.VertexID, float32)) { panic("first run dies") }
	if _, err := p.RunBatched(allVertices(16), bad, func([]graph.VertexID, []float32) {}); err == nil {
		t.Fatal("no error from panicking run")
	}
	var delivered atomic.Int64
	stats, err := p.RunBatched(allVertices(16), fanoutGen(g), func(dsts []graph.VertexID, _ []float32) {
		delivered.Add(int64(len(dsts)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 28 || delivered.Load() != 28 {
		t.Fatalf("post-panic run delivered %d/%d, want 28/28", stats.Messages, delivered.Load())
	}

	// A pooled engine whose workers panicked mid-batch — each holding a
	// partly filled accumulation buffer — goes back to the pool and, once
	// acquired again, delivers exactly the next run's messages: no residue
	// of the failed run reaches its movers.
	const n, fan = 600, 4
	pooled, err := Acquire[float32](3, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	midBatch := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for k := 0; k < 3; k++ {
			emit(graph.VertexID((int(v)+k)%n), -1)
		}
		panic("dies mid-batch")
	}
	if _, err := pooled.RunBatched(allVertices(n), midBatch, func([]graph.VertexID, []float32) {}); err == nil {
		t.Fatal("no error from panicking run")
	}
	pooled.Release()
	again, err := Acquire[float32](3, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != pooled {
		t.Fatal("Acquire after Release did not reuse the pooled engine")
	}
	want := map[Message[float32]]int{}
	gen := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for k := 1; k <= fan; k++ {
			emit(graph.VertexID((int(v)+k)%n), float32(v))
		}
	}
	for v := 0; v < n; v++ {
		gen(graph.VertexID(v), func(dst graph.VertexID, val float32) { want[Message[float32]{dst, val}]++ })
	}
	var mu sync.Mutex
	got := map[Message[float32]]int{}
	if _, err := again.RunBatched(allVertices(n), gen, func(dsts []graph.VertexID, vals []float32) {
		mu.Lock()
		defer mu.Unlock()
		for i, d := range dsts {
			got[Message[float32]{d, vals[i]}]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d distinct messages, want %d", len(got), len(want))
	}
	for m, c := range want {
		if got[m] != c {
			t.Fatalf("message %+v delivered %d times, want %d", m, got[m], c)
		}
	}
}

// TestRunBatchedAllocsPerWorkerAndMover: the ring matrix, the workers'
// accumulation buffers and the movers' scratch belong to the engine, so a
// run on a warm engine allocates per goroutine (closures, scheduler), never
// per (worker, mover) pair.
func TestRunBatchedAllocsPerWorkerAndMover(t *testing.T) {
	const workers, movers = 64, 32
	g := graph.PaperExample()
	p, err := NewPipelined[float32](workers, movers, 8)
	if err != nil {
		t.Fatal(err)
	}
	active := allVertices(16)
	sink := func([]graph.VertexID, []float32) {}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.RunBatched(active, fanoutGen(g), sink); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(8 * (workers + movers)); allocs > limit {
		t.Fatalf("RunBatched allocated %.0f objects per run, want <= %.0f (8 per goroutine; %d worker×mover pairs)", allocs, limit, workers*movers)
	}
}

// TestAcquireRelease: the pool hands a released engine back — rings empty —
// only to an Acquire of the same shape and message type; a double Release
// pools the engine once; an engine with a non-empty ring is never pooled;
// and an engine idle for two GC cycles is dropped.
func TestAcquireRelease(t *testing.T) {
	const w, m, b = 5, 3, 7 // a shape no other test pools
	p, err := Acquire[float32](w, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunBatched(allVertices(16), fanoutGen(graph.PaperExample()), func([]graph.VertexID, []float32) {}); err != nil {
		t.Fatal(err)
	}
	p.Release()
	p.Release() // no-op: already pooled
	other, err := Acquire[float32](m, w, b)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := Acquire[int32](w, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if any(other) == any(p) || any(typed) == any(p) {
		t.Fatal("an engine crossed shapes or message types")
	}
	q, err := Acquire[float32](w, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("Acquire did not reuse the released engine")
	}
	for i := range q.rings {
		if !q.rings[i].Empty() {
			t.Fatalf("ring %d of a reacquired engine holds %d messages", i, q.rings[i].Len())
		}
	}
	if fresh, err := Acquire[float32](w, m, b); err != nil || fresh == p {
		t.Fatalf("double Release pooled the engine twice (err %v)", err)
	}

	q.rings[0].Push(Message[float32]{Dst: 1})
	q.Release()
	if r, _ := Acquire[float32](w, m, b); r == q {
		t.Fatal("an engine with a non-empty ring was pooled")
	}

	idle, err := Acquire[float32](w, m, b)
	if err != nil {
		t.Fatal(err)
	}
	idle.Release()
	sweepPools()
	sweepPools()
	if r, _ := Acquire[float32](w, m, b); r == idle {
		t.Fatal("an engine idle for two sweeps was still pooled")
	}
}

// TestPoolConcurrentJobs: jobs that acquire, run and release engines of one
// shape from several goroutines at once each get an engine of their own and
// deliver exactly their messages.
func TestPoolConcurrentJobs(t *testing.T) {
	g := graph.PaperExample()
	var wg sync.WaitGroup
	for j := 0; j < 6; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				p, err := Acquire[float32](4, 3, 2)
				if err != nil {
					t.Error(err)
					return
				}
				var delivered atomic.Int64
				st, err := p.RunBatched(allVertices(16), fanoutGen(g), func(dsts []graph.VertexID, _ []float32) {
					delivered.Add(int64(len(dsts)))
				})
				p.Release()
				if err != nil || st.Messages != 28 || delivered.Load() != 28 {
					t.Errorf("job delivered %d/%d, want 28/28 (err %v)", st.Messages, delivered.Load(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolSweepFollowsGC: the sweeper runs after real GC cycles, not only
// when called.
func TestPoolSweepFollowsGC(t *testing.T) {
	poolMu.Lock()
	start := gcGen
	poolMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
		poolMu.Lock()
		seen := gcGen - start
		poolMu.Unlock()
		if seen >= 2 {
			return
		}
	}
	t.Fatal("the pool sweeper did not observe two GC cycles within 10s")
}

func TestPipelinedReusableAfterPanic(t *testing.T) {
	// The engine must be clean after a contained panic: a subsequent run
	// delivers exactly the expected messages.
	g := graph.PaperExample()
	p, err := NewPipelined[float32](3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := func(v graph.VertexID, emit func(graph.VertexID, float32)) { panic("first run dies") }
	if _, err := p.Run(allVertices(16), bad, func(graph.VertexID, float32) {}); err == nil {
		t.Fatal("no error from panicking run")
	}
	var delivered atomic.Int64
	stats, err := p.Run(allVertices(16), fanoutGen(g), func(graph.VertexID, float32) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages != 28 || delivered.Load() != 28 {
		t.Fatalf("post-panic run delivered %d/%d, want 28/28", stats.Messages, delivered.Load())
	}
}

// BenchmarkNewPipelined measures building an engine at the MIC split
// (183 workers, 61 movers, 1024-slot rings): the per-job cost before
// engines were pooled.
func BenchmarkNewPipelined(b *testing.B) {
	workers, movers := machine.DefaultPipeSplit(machine.MIC())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipelined[float32](workers, movers, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAcquireRelease measures a pooled engine round trip at the MIC
// split: the per-job cost with pooling. The engine is built before the
// timer starts, so every timed Acquire is a pool hit.
func BenchmarkAcquireRelease(b *testing.B) {
	workers, movers := machine.DefaultPipeSplit(machine.MIC())
	warm, err := Acquire[float32](workers, movers, 1)
	if err != nil {
		b.Fatal(err)
	}
	warm.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Acquire[float32](workers, movers, 1)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
