package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hetgraph/internal/apps"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/comm"
	"hetgraph/internal/core"
	"hetgraph/internal/csb"
	"hetgraph/internal/frontier"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metis"
	"hetgraph/internal/partition"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/queue"
	"hetgraph/internal/sched"
	"hetgraph/internal/vec"
)

// Layer replays: the workload's own traffic is played into each layer it
// uses, from outside, with a timer around each public call. The traffic is
// the workload graph's edge stream (one message per edge in CSR order), the
// workload's devices (SIMD width, Dev.Threads(), machine.DefaultPipeSplit)
// and its assignment (the cross-rank subset of the stream for comm).

const (
	handoffBatch = 64      // pipeline.DefaultBatch
	handoffMsgs  = 1 << 19 // messages through one ring per repetition
	ringCap      = 1024    // the pipeline's per-(worker, mover) ring capacity
	schedTasks   = 1 << 20
	schedChunk   = 4
	exchangeRuns = 200
)

// layerUse says which optional layers a workload enters; the rest follows
// from its per-rank options.
type layerUse struct {
	Sum        bool // vec.ReduceSum (PageRank)
	Min        bool // vec.ReduceMin (SSSP; BFS is not reducible and folds scalar)
	Sorted     bool // order-sensitive sums: SortLane and comm.SortingCombiner
	Plain      bool // exactly associative reductions: comm.Combiner
	Hybrid     bool // partitioned through metis
	Checkpoint bool // durable checkpoints and the job journal
}

type replay struct {
	g      *graph.CSR
	assign []int32 // nil on a single device
	opts   []core.Options
	use    layerUse
	reps   int
	dir    string
	rep    *workloadReport
	active []graph.VertexID
}

func newReplay(g *graph.CSR, assign []int32, opts []core.Options, use layerUse, reps int, dir string, rep *workloadReport) *replay {
	active := make([]graph.VertexID, g.NumVertices())
	for v := range active {
		active[v] = graph.VertexID(v)
	}
	return &replay{g: g, assign: assign, opts: opts, use: use, reps: reps, dir: dir, rep: rep, active: active}
}

// timeNS runs prep (untimed) then run (timed) reps times and returns the
// nanoseconds of each run.
func timeNS(reps int, prep, run func()) []float64 {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		t := time.Now()
		run()
		out = append(out, float64(time.Since(t).Nanoseconds()))
	}
	return out
}

// allocMB returns the bytes f allocates, in MB.
func allocMB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// rank returns the first rank on scheme, or nil when the workload has none.
func (rp *replay) rank(s core.Scheme) *core.Options {
	for r := range rp.opts {
		if rp.opts[r].Scheme == s {
			return &rp.opts[r]
		}
	}
	return nil
}

func (rp *replay) ranksLabel() string { return fmt.Sprintf("sum over %d ranks", len(rp.opts)) }

// edgeStream emits one message (dst, 1.0) per out-edge of v.
func (rp *replay) edgeStream(v graph.VertexID, emit func(graph.VertexID, float32)) {
	for _, d := range rp.g.Neighbors(v) {
		emit(d, 1)
	}
}

func csbConfig(o core.Options, identity float32) csb.Config {
	return csb.Config{Width: o.Dev.SIMDWidth, K: 2, Identity: identity}
}

// setupLayers measures what set-up is made of beyond the spans taken while
// it ran: the metis call inside partition.Hybrid and the cut it leaves.
func (rp *replay) setupLayers() error {
	if rp.assign != nil {
		rp.rep.set("partition.cross_edge_frac", float64(partition.CrossEdges(rp.g, rp.assign))/float64(rp.g.NumEdges()), 1, "")
	}
	if !rp.use.Hybrid {
		return nil
	}
	var err error
	var mb float64
	ns := timeNS(min(rp.reps, 3), nil, func() {
		mb = allocMB(func() {
			_, err = metis.Partition(rp.g, partition.BlocksFor(rp.g.NumVertices()), metis.DefaultOptions())
		})
	})
	rp.rep.set("metis.partition_ms", median(ns)/1e6, len(ns), "")
	rp.rep.set("metis.alloc_mb", mb, 1, "")
	return err
}

// construction measures what every job rebuilds per rank before its first
// superstep: the message buffer, the pipelined ranks' ring matrices, and
// the transpose of direction-optimizing ranks.
func construction[T any](rp *replay, build func(o core.Options) error) error {
	var err error
	var buildMS, newMS, newMB float64
	pipelined := 0
	for _, o := range rp.opts {
		buildMS += median(timeNS(rp.reps, nil, func() { err = build(o) })) / 1e6
		if err != nil {
			return err
		}
		if o.Scheme != core.SchemePipelined {
			continue
		}
		pipelined++
		workers, movers := machine.DefaultPipeSplit(o.Dev)
		newMB += allocMB(func() {
			newMS += median(timeNS(rp.reps, nil, func() { _, err = pipeline.NewPipelined[T](workers, movers, 1) })) / 1e6
		}) / float64(rp.reps)
		if err != nil {
			return err
		}
	}
	rp.rep.set("csb.build_ms", buildMS, rp.reps, rp.ranksLabel())
	if pipelined > 0 {
		rp.rep.set("pipeline.new_ms", newMS, rp.reps, fmt.Sprintf("sum over %d pipelined ranks", pipelined))
		rp.rep.set("pipeline.new_alloc_mb", newMB, rp.reps, fmt.Sprintf("sum over %d pipelined ranks", pipelined))
	}
	if rp.opts[0].Direction != core.DirectionPush {
		ns := timeNS(rp.reps, nil, func() { rp.g.Transpose() })
		rp.rep.set("graph.transpose_ms", median(ns)/1e6*float64(len(rp.opts)), rp.reps, rp.ranksLabel())
		bm := frontier.NewBitmap(rp.g.NumVertices())
		ns = timeNS(rp.reps, nil, func() {
			bm.FillFrom(rp.active)
			bm.Count()
		})
		rp.rep.set("frontier.fill_ns_per_vertex", median(ns)/float64(len(rp.active)), rp.reps, "")
	}
	return nil
}

// classes splits the edge stream by destination class (dst mod movers), the
// way the pipeline routes it, with values that vary so that SortLane has
// something to sort.
func (rp *replay) classes(movers int) (dsts [][]graph.VertexID, vals [][]float32) {
	dsts = make([][]graph.VertexID, movers)
	vals = make([][]float32, movers)
	i := uint32(0)
	for _, d := range rp.g.Edges {
		c := int(d) % movers
		dsts[c] = append(dsts[c], d)
		vals[c] = append(vals[c], float32(i*2654435761>>16)/65536)
		i++
	}
	return dsts, vals
}

// inBatches calls f on consecutive ranges of handoffBatch elements, the way
// a mover hands drained batches to the buffer.
func inBatches(n int, f func(lo, hi int)) {
	for lo := 0; lo < n; lo += handoffBatch {
		f(lo, min(lo+handoffBatch, n))
	}
}

// perClass runs f once per mover class, each on its own goroutine, and waits.
func perClass(classes int, f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < classes; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

func insertOwned(buf *csb.Buffer, dsts []graph.VertexID, vals []float32) {
	inBatches(len(dsts), func(lo, hi int) { buf.InsertOwnedBatch(dsts[lo:hi], vals[lo:hi]) })
}

// f32Buffer plays the edge stream into the Condensed Static Buffer and
// reduces it: csb.* and vec.*.
func (rp *replay) f32Buffer(identity float32) error {
	m := float64(rp.g.NumEdges())
	var footprint int64
	for _, o := range rp.opts {
		buf, err := csb.Build(rp.g, csbConfig(o, identity))
		if err != nil {
			return err
		}
		footprint += buf.FootprintBytes()
	}
	rp.rep.set("csb.footprint_mb", float64(footprint)/(1<<20), 1, rp.ranksLabel())

	if o := rp.rank(core.SchemeLocking); o != nil {
		buf, err := csb.Build(rp.g, csbConfig(*o, identity))
		if err != nil {
			return err
		}
		ns := timeNS(rp.reps, func() { buf.Reset() }, func() {
			_, err = pipeline.RunLocking(rp.active, o.Dev.Threads(), rp.edgeStream, buf.Insert)
		})
		if err != nil {
			return err
		}
		rp.rep.set("csb.insert_ns_per_msg", median(ns)/m, rp.reps, fmt.Sprintf("%d goroutines", o.Dev.Threads()))
	}

	// The remaining replays run at the widest rank's geometry: the MIC when
	// the workload has one.
	o := rp.opts[len(rp.opts)-1]
	_, movers := machine.DefaultPipeSplit(o.Dev)
	dsts, vals := rp.classes(movers)
	buf, err := csb.Build(rp.g, csbConfig(o, identity))
	if err != nil {
		return err
	}
	fill := func() {
		buf.Reset()
		for c := range dsts {
			insertOwned(buf, dsts[c], vals[c])
		}
	}
	if o.Scheme == core.SchemePipelined {
		ns := timeNS(rp.reps, func() { buf.Reset() }, func() {
			perClass(movers, func(c int) { insertOwned(buf, dsts[c], vals[c]) })
		})
		rp.rep.set("csb.insert_owned_ns_per_msg", median(ns)/m, rp.reps, fmt.Sprintf("%d mover classes", movers))
	}
	ns := timeNS(rp.reps, fill, func() { buf.Reset() })
	rp.rep.set("csb.reset_ms", median(ns)/1e6, rp.reps, "")
	fill()
	rows, occupied := buf.OccupancyStats()
	rp.rep.set("csb.occupancy", float64(occupied)/float64(rows*int64(buf.Width())), 1, "")

	type lane struct {
		arr   *vec.ArrayF32
		lane  int
		count int
	}
	var lanes []lane
	var totalRows float64
	var scratch []csb.Lane
	for t := 0; t < buf.NumTasks(); t++ {
		arr, rows := buf.Task(t)
		if rows == 0 {
			continue
		}
		totalRows += float64(rows)
		scratch = buf.Lanes(t, scratch[:0])
		for _, l := range scratch {
			lanes = append(lanes, lane{arr, l.Lane, int(l.Count)})
		}
	}
	reduce := func(name string, fold func(*vec.ArrayF32, int)) {
		ns := timeNS(rp.reps, nil, func() {
			for t := 0; t < buf.NumTasks(); t++ {
				if arr, rows := buf.Task(t); rows > 0 {
					fold(arr, rows)
				}
			}
		})
		rp.rep.set(name, median(ns)/totalRows, rp.reps, fmt.Sprintf("width %d", buf.Width()))
	}
	if rp.use.Sorted {
		// Refill before every repetition: a lane sorted once is a best case.
		var tmp []float32
		ns := timeNS(rp.reps, fill, func() {
			for _, l := range lanes {
				tmp = l.arr.SortLane(l.lane, l.count, tmp)
			}
		})
		rp.rep.set("vec.sortlane_ns_per_msg", median(ns)/m, rp.reps, "")
	}
	if rp.use.Sum {
		reduce("vec.reduce_sum_ns_per_row", func(a *vec.ArrayF32, rows int) { a.ReduceSum(rows) })
	}
	if rp.use.Min {
		reduce("vec.reduce_min_ns_per_row", func(a *vec.ArrayF32, rows int) { a.ReduceMin(rows) })
	}
	return nil
}

// genericBuffer plays structured messages into csb.GenericBuffer, the
// buffer of the second engine.
func (rp *replay) genericBuffer(gen pipeline.Gen[apps.SCMsg]) error {
	m := float64(rp.g.NumEdges())
	n := rp.g.NumVertices()
	var err error
	if o := rp.rank(core.SchemeLocking); o != nil {
		buf := csb.NewGenericBuffer[apps.SCMsg](n, 4*o.Dev.Threads())
		insert := func() { _, err = pipeline.RunLocking(rp.active, o.Dev.Threads(), gen, buf.Insert) }
		ns := timeNS(rp.reps, buf.Reset, insert)
		rp.rep.set("csb.insert_ns_per_msg", median(ns)/m, rp.reps, fmt.Sprintf("GenericBuffer, %d goroutines", o.Dev.Threads()))
		ns = timeNS(rp.reps, func() { buf.Reset(); insert() }, buf.Reset)
		rp.rep.set("csb.reset_ms", median(ns)/1e6, rp.reps, "GenericBuffer")
	}
	if o := rp.rank(core.SchemePipelined); o != nil && err == nil {
		_, movers := machine.DefaultPipeSplit(o.Dev)
		dsts := make([][]graph.VertexID, movers)
		msgs := make([][]apps.SCMsg, movers)
		for _, v := range rp.active {
			gen(v, func(d graph.VertexID, msg apps.SCMsg) {
				c := int(d) % movers
				dsts[c] = append(dsts[c], d)
				msgs[c] = append(msgs[c], msg)
			})
		}
		buf := csb.NewGenericBuffer[apps.SCMsg](n, 4*o.Dev.Threads())
		ns := timeNS(rp.reps, buf.Reset, func() {
			perClass(movers, func(c int) {
				inBatches(len(dsts[c]), func(lo, hi int) { buf.InsertOwnedBatch(dsts[c][lo:hi], msgs[c][lo:hi]) })
			})
		})
		rp.rep.set("csb.insert_owned_ns_per_msg", median(ns)/m, rp.reps, fmt.Sprintf("GenericBuffer, %d mover classes", movers))
	}
	return err
}

// handoff measures one SPSC ring between two goroutines, per element and in
// batches, and what a mover pays to poll an empty ring.
func handoff[T any](rp *replay, msg pipeline.Message[T]) error {
	q, err := queue.NewSPSC[pipeline.Message[T]](ringCap)
	if err != nil {
		return err
	}
	ns := timeNS(rp.reps, nil, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < handoffMsgs; i++ {
				q.Push(msg)
			}
		}()
		for got := 0; got < handoffMsgs; {
			if _, ok := q.TryPop(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
		<-done
	})
	rp.rep.set("queue.handoff_ns_per_msg", median(ns)/handoffMsgs, rp.reps, "")

	batch := make([]pipeline.Message[T], handoffBatch)
	for i := range batch {
		batch[i] = msg
	}
	scratch := make([]pipeline.Message[T], handoffBatch)
	ns = timeNS(rp.reps, nil, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < handoffMsgs; i += handoffBatch {
				q.PushBatch(batch)
			}
		}()
		for got := 0; got < handoffMsgs; {
			if k := q.PopBatch(scratch); k > 0 {
				got += k
			} else {
				runtime.Gosched()
			}
		}
		<-done
	})
	rp.rep.set("queue.handoff_batch_ns_per_msg", median(ns)/handoffMsgs, rp.reps, fmt.Sprintf("batch %d", handoffBatch))

	ns = timeNS(rp.reps, nil, func() {
		for i := 0; i < handoffMsgs; i++ {
			q.PopBatch(scratch)
		}
	})
	rp.rep.set("queue.empty_poll_ns", median(ns)/handoffMsgs, rp.reps, "")
	return nil
}

// pipelined runs the worker/mover engine over the edge stream into a sink
// that discards, which leaves generation, routing and handoff.
func pipelined[T any](rp *replay, gen pipeline.Gen[T]) error {
	o := rp.rank(core.SchemePipelined)
	workers, movers := machine.DefaultPipeSplit(o.Dev)
	p, err := pipeline.NewPipelined[T](workers, movers, 1)
	if err != nil {
		return err
	}
	ns := timeNS(rp.reps, nil, func() { _, err = p.Run(rp.active, gen, func(graph.VertexID, T) {}) })
	rp.rep.set("pipeline.run_ns_per_msg", median(ns)/float64(rp.g.NumEdges()), rp.reps, fmt.Sprintf("%d workers, %d movers", workers, movers))
	return err
}

// scheduler measures the shared scheduling offset under the thread count of
// the workload's widest rank.
func (rp *replay) scheduler() error {
	threads := rp.opts[len(rp.opts)-1].Dev.Threads()
	var fetches int64
	var err error
	ns := timeNS(rp.reps, nil, func() {
		var s *sched.Scheduler
		if s, err = sched.New(schedTasks, schedChunk); err != nil {
			return
		}
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, _, ok := s.Next(); !ok {
						return
					}
				}
			}()
		}
		wg.Wait()
		fetches = s.Fetches()
	})
	if err != nil {
		return err
	}
	rp.rep.set("sched.next_ns", median(ns)/float64(fetches), rp.reps, fmt.Sprintf("%d goroutines", threads))
	return nil
}

// crossStream collects, per source rank, the messages the edge stream sends
// across the cut.
func crossStream[T any](rp *replay, gen pipeline.Gen[T]) [][]comm.Msg[T] {
	out := make([][]comm.Msg[T], len(rp.opts))
	for _, v := range rp.active {
		from := rp.assign[v]
		gen(v, func(d graph.VertexID, val T) {
			if rp.assign[d] != from {
				out[from] = append(out[from], comm.Msg[T]{Dst: d, Val: val})
			}
		})
	}
	return out
}

// combiner is what both remote combiners offer.
type combiner[T any] interface {
	Add(dst graph.VertexID, v T)
	DrainRouted(out [][]comm.Msg[T], rankOf func(graph.VertexID) int) [][]comm.Msg[T]
}

// combine plays each rank's cross-cut messages through a remote combiner
// and returns the routed, combined payloads of the last repetition.
func combine[T any](rp *replay, name string, cross [][]comm.Msg[T], mk func() combiner[T]) [][][]comm.Msg[T] {
	ranks := len(rp.opts)
	rankOf := func(v graph.VertexID) int { return int(rp.assign[v]) }
	var total float64
	for _, msgs := range cross {
		total += float64(len(msgs))
	}
	routed := make([][][]comm.Msg[T], ranks)
	cs := make([]combiner[T], ranks)
	for r := range cs {
		cs[r] = mk()
	}
	ns := timeNS(rp.reps, nil, func() {
		for r, msgs := range cross {
			for _, m := range msgs {
				cs[r].Add(m.Dst, m.Val)
			}
			routed[r] = cs[r].DrainRouted(make([][]comm.Msg[T], ranks), rankOf)
		}
	})
	if total > 0 {
		rp.rep.set(name, median(ns)/total, rp.reps, fmt.Sprintf("%.0f cross-rank messages", total))
	}
	return routed
}

// exchange times all-to-all rounds on a fresh group net: first with empty
// payloads (the fixed cost of a round), then carrying the combined
// cross-rank payload (framing, checksum and decode per message).
func exchange[T any](rp *replay, msgBytes int, payload [][][]comm.Msg[T]) error {
	ranks := len(rp.opts)
	round := func(out func(r int) [][]comm.Msg[T]) (float64, error) {
		net, err := comm.NewGroupNet[T](machine.PCIe(), msgBytes, ranks)
		if err != nil {
			return 0, err
		}
		eps := make([]*comm.Endpoint[T], ranks)
		for r := range eps {
			if eps[r], err = net.Endpoint(r); err != nil {
				return 0, err
			}
		}
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		t := time.Now()
		for r, ep := range eps {
			wg.Add(1)
			go func(r int, ep *comm.Endpoint[T]) {
				defer wg.Done()
				for i := 0; i < exchangeRuns && errs[r] == nil; i++ {
					_, _, _, errs[r] = ep.ExchangeAll(out(r), 0)
				}
				if errs[r] != nil {
					ep.Abort()
				}
			}(r, ep)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t).Nanoseconds()) / exchangeRuns, nil
	}
	var empty, loaded []float64
	var sent float64
	for _, to := range payload {
		for _, msgs := range to {
			sent += float64(len(msgs))
		}
	}
	for i := 0; i < rp.reps; i++ {
		ns, err := round(func(int) [][]comm.Msg[T] { return nil })
		if err != nil {
			return err
		}
		empty = append(empty, ns)
		if sent == 0 {
			continue
		}
		if ns, err = round(func(r int) [][]comm.Msg[T] { return payload[r] }); err != nil {
			return err
		}
		loaded = append(loaded, ns)
	}
	rp.rep.set("comm.exchange_us_per_round", median(empty)/1e3, rp.reps*exchangeRuns, fmt.Sprintf("%d ranks, empty payload", ranks))
	if sent > 0 {
		rp.rep.set("comm.exchange_ns_per_msg", median(loaded)/sent, rp.reps*exchangeRuns, fmt.Sprintf("%.0f combined messages per round", sent))
	}
	return nil
}

// durable measures the write path a served job pays: encoding a snapshot of
// the workload's state size, committing it, and appending a journal record.
func (rp *replay) durable() error {
	n := rp.g.NumVertices()
	snap := &checkpoint.Snapshot{Superstep: 1, State: checkpoint.EncodeF32(make([]float32, n)), Frontier: make([][]graph.VertexID, len(rp.opts))}
	for v, r := range rp.assign {
		if v%2 == 0 {
			snap.Frontier[r] = append(snap.Frontier[r], graph.VertexID(v))
		}
	}
	ns := timeNS(rp.reps, nil, func() { snap.Encode() })
	rp.rep.set("checkpoint.encode_ms", median(ns)/1e6, rp.reps, fmt.Sprintf("%d state bytes", len(snap.State)))

	store, err := checkpoint.OpenStore(filepath.Join(rp.dir, "replay-store"), checkpoint.StoreOptions{})
	if err != nil {
		return err
	}
	commits := 2*rp.reps - 1
	ns = timeNS(commits, nil, func() {
		if _, cerr := store.Commit(snap); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	rp.rep.set("checkpoint.commit_ms_p50", median(ns)/1e6, commits, "")

	journal, err := checkpoint.OpenJournal(filepath.Join(rp.dir, "replay-journal"), nil)
	if err != nil {
		return err
	}
	record := []byte(`{"id":"j00000000","state":"running","attempt":1,"unix_nano":1700000000000000000}`)
	appends := 4*rp.reps + 1
	ns = timeNS(appends, nil, func() {
		if aerr := journal.Append(record); aerr != nil {
			err = aerr
		}
	})
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	rp.rep.set("checkpoint.journal_append_us_p50", median(ns)/1e3, appends, fmt.Sprintf("%d byte record", len(record)))
	return err
}

// f32 runs every replay of a float32-message workload.
func (rp *replay) f32(identity float32) error {
	if err := rp.setupLayers(); err != nil {
		return err
	}
	err := construction[float32](rp, func(o core.Options) error {
		_, err := csb.Build(rp.g, csbConfig(o, identity))
		return err
	})
	if err != nil {
		return err
	}
	if err := rp.f32Buffer(identity); err != nil {
		return err
	}
	if err := rp.scheduler(); err != nil {
		return err
	}
	if rp.rank(core.SchemePipelined) != nil {
		if err := handoff(rp, pipeline.Message[float32]{Dst: 1, Val: 1}); err != nil {
			return err
		}
		if err := pipelined[float32](rp, rp.edgeStream); err != nil {
			return err
		}
	}
	if rp.assign != nil {
		n := rp.g.NumVertices()
		cross := crossStream[float32](rp, rp.edgeStream)
		var payload [][][]comm.Msg[float32]
		if rp.use.Sorted {
			add := func(a, b float32) float32 { return a + b }
			payload = combine(rp, "comm.sorting_combine_ns_per_msg", cross, func() combiner[float32] { return comm.NewSortingCombiner[float32](n, add) })
		}
		if rp.use.Plain {
			least := func(a, b float32) float32 { return min(a, b) }
			payload = combine(rp, "comm.combine_ns_per_msg", cross, func() combiner[float32] { return comm.NewCombiner(n, least) })
		}
		if err := exchange(rp, 4, payload); err != nil {
			return err
		}
	}
	if rp.use.Checkpoint {
		return rp.durable()
	}
	return nil
}

// structured runs every replay of the Semi-Clustering workload: the
// messages are the cluster lists a freshly initialized app sends.
func (rp *replay) structured() error {
	if err := rp.setupLayers(); err != nil {
		return err
	}
	app := newSC()
	app.Init(rp.g)
	n := rp.g.NumVertices()
	err := construction[apps.SCMsg](rp, func(o core.Options) error {
		csb.NewGenericBuffer[apps.SCMsg](n, 4*o.Dev.Threads())
		return nil
	})
	if err != nil {
		return err
	}
	if err := rp.genericBuffer(app.Generate); err != nil {
		return err
	}
	if err := rp.scheduler(); err != nil {
		return err
	}
	if err := handoff(rp, pipeline.Message[apps.SCMsg]{Dst: 1, Val: app.Clusters[1]}); err != nil {
		return err
	}
	if err := pipelined[apps.SCMsg](rp, app.Generate); err != nil {
		return err
	}
	cross := crossStream[apps.SCMsg](rp, app.Generate)
	payload := combine(rp, "comm.combine_ns_per_msg", cross, func() combiner[apps.SCMsg] { return comm.NewCombiner(n, app.Combine) })
	return exchange(rp, app.Profile().MsgBytes, payload)
}
