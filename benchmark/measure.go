package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/ompbase"
	"hetgraph/internal/partition"
	"hetgraph/internal/serve"
)

// runConfig is one run of one workload: what the driver's command line asks
// for. Quick swaps in the smoke sizes the tests use.
type runConfig struct {
	Def     workloadDef
	Seed    int64
	Seconds float64
	Trace   bool
	Quick   bool
	OutDir  string // trace files
	Dir     string // scratch, removed by the caller
}

func (c runConfig) scale() scale {
	if c.Quick {
		return quickScale
	}
	return fullScale
}

// minJobs is the floor on timed jobs: the workload's fixed prefix, or two
// jobs (one block of the mix) in the smoke.
func (c runConfig) minJobs() int {
	if !c.Quick {
		return c.Def.MinJobs
	}
	if c.Def.Name == "serve-mix" {
		return blockJobs
	}
	return 2
}

// reps is the repetition count of set-up (3), baseline runs and layer
// replays (11): enough for a median. The smoke only walks the paths.
func (c runConfig) reps(full int) int {
	if c.Quick {
		return 2
	}
	return full
}

// budget is the length of the timed section. A traced run spends half of
// its seconds there and the rest on the layer replays.
func (c runConfig) budget() time.Duration {
	s := c.Seconds
	if c.Trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

func (c runConfig) blocks() int {
	if c.Quick {
		return 1
	}
	return maxBlocks
}

func newReport(c runConfig) *workloadReport {
	return &workloadReport{Workload: c.Def.Name, Traced: c.Trace, Metrics: map[string]metricValue{}, Exact: map[string]float64{}}
}

// measure runs one workload once and reports either its end-to-end or its
// per-layer metrics.
func measure(c runConfig) (*workloadReport, error) {
	run := measureBatch
	if c.Def.Name == "serve-mix" {
		run = measureServe
	}
	rep, err := run(c)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Def.Name, err)
	}
	return rep, nil
}

func fingerprintInput(g *graph.CSR, assign []int32) inputFingerprint {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, g.Offsets) //nolint:errcheck // a hash never fails to write
	binary.Write(h, binary.LittleEndian, g.Edges)   //nolint:errcheck
	if g.Weighted() {
		binary.Write(h, binary.LittleEndian, g.Weights) //nolint:errcheck
	}
	fp := inputFingerprint{Vertices: g.NumVertices(), Edges: g.NumEdges(), GraphFNV: fmt.Sprintf("%016x", h.Sum64())}
	if assign != nil {
		fp.CrossEdges = partition.CrossEdges(g, assign)
	}
	return fp
}

// timedStats is the outcome of a batch workload's timed section.
type timedStats struct {
	LatMS   []float64 // per job, in order
	Results []jobResult
	Wall    time.Duration
	AllocMB float64 // per job
	Allocs  float64 // per job
}

// tracedJob says which jobs of a traced run carry the benchmark's sink:
// every other one, so that the traced and the untraced median see the same
// machine.
func tracedJob(i int) bool { return i%2 == 1 }

// timed runs jobs back to back, one at a time, until the budget is spent
// and minJobs are done. With a tracer, the jobs tracedJob names run with the
// benchmark's sink attached.
func (b *batch) timed(rep *workloadReport, budget time.Duration, minJobs int, tr *tracer) timedStats {
	var st timedStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start) < budget; i++ {
		var sink metrics.Sink
		var js *jobSink
		if tr != nil && tracedJob(i) {
			js = tr.startJob(i)
			sink = js
		}
		t := time.Now()
		res, _, err := b.job(i, sink)
		lat := msSince(t)
		if js != nil {
			js.finish()
		}
		rep.Attempted++
		if err != nil {
			rep.fail(fmt.Errorf("job %d: %w", i, err))
			continue
		}
		st.LatMS = append(st.LatMS, lat)
		st.Results = append(st.Results, res)
	}
	st.Wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	jobs := float64(max(len(st.LatMS), 1))
	st.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / jobs
	st.Allocs = float64(m1.Mallocs-m0.Mallocs) / jobs
	return st
}

// simNote says which jobs sim_ms_mean covers.
const simNote = "the workload's fixed first jobs"

// setSim fills sim_ms_mean: the mean simulated time of the first n results.
func setSim(rep *workloadReport, results []jobResult, n int) {
	var sims []float64
	for _, r := range results[:min(n, len(results))] {
		sims = append(sims, r.SimSeconds*1e3)
	}
	rep.set("sim_ms_mean", mean(sims), len(sims), simNote)
}

// counts fills the exact per-job counts from the first n results and the
// schedule-dependent VecRows range from all of them.
func counts(rep *workloadReport, results []jobResult, n int) {
	prefix := results[:min(n, len(results))]
	if len(prefix) == 0 {
		return
	}
	sum := map[string]float64{}
	for _, res := range prefix {
		var c machine.Counters
		var steps int64
		for _, r := range res.Ranks {
			c.Add(r.Counters)
			steps = max(steps, r.Iterations)
		}
		sum["core.supersteps"] += float64(steps)
		sum["core.messages"] += float64(c.Messages)
		sum["core.remote_messages"] += float64(c.RemoteMessages)
		sum["core.edges_traversed"] += float64(c.EdgesTraversed)
		sum["core.columns_used"] += float64(c.ColumnsUsed)
		sum["core.queue_ops"] += float64(c.QueueOps + c.QueueBatchOps)
		sum["core.task_fetches"] += float64(c.TaskFetches)
		sum["core.pull_supersteps"] += float64(c.PullSupersteps)
		sum["core.pull_edges_scanned"] += float64(c.PullEdgesScanned)
		sum["comm.bytes_per_job"] += float64(c.BytesSent)
		sum["comm.rounds_per_job"] += float64(c.Exchanges)
	}
	for _, name := range exactCounts {
		rep.Exact[name] = sum[name] / float64(len(prefix))
	}
}

// endToEndMetrics fills the end-to-end metrics of latency, throughput and
// memory.
func endToEndMetrics(rep *workloadReport, latMS []float64, wall time.Duration, allocMB, allocs float64) {
	n := len(latMS)
	rep.Jobs, rep.TimedSeconds = n, wall.Seconds()
	rep.set("job_ms_p50", median(latMS), n, "")
	t, pct := tail(latMS)
	rep.set("job_ms_tail", t, n, fmt.Sprintf("p%d", pct))
	rep.set("jobs_per_s", float64(n)/wall.Seconds(), n, "")
	rep.set("alloc_mb_per_job", allocMB, n, "")
	rep.set("allocs_per_job", allocs, n, "")
	rep.set("peak_rss_mb", peakRSSMB(), 1, "")
}

// timeSetups runs a workload's set-up reps times and returns the seconds of
// each. choose runs between build and warm but outside the clock: it picks
// sources or deals the job list with the oracle's BFS, which is not the
// program's own set-up.
func timeSetups(reps int, build, choose, warm func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		d := time.Since(t)
		if err := choose(); err != nil {
			return nil, err
		}
		t = time.Now()
		if err := warm(); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		out = append(out, (d + time.Since(t)).Seconds())
	}
	return out, nil
}

// ompBaseline holds the runs of the OpenMP-style baseline: run i is the
// baseline of job i, with its wall and simulated milliseconds.
type ompBaseline struct {
	omp func(i int) (ompbase.Result, error)
	ms  []float64
	sim []float64
}

func newOMPBaseline(runs int, omp func(i int) (ompbase.Result, error)) *ompBaseline {
	return &ompBaseline{omp: omp, ms: make([]float64, runs), sim: make([]float64, runs)}
}

// run executes runs [from, to).
func (o *ompBaseline) run(from, to int) error {
	for i := from; i < to; i++ {
		t := time.Now()
		res, err := o.omp(i)
		if err != nil {
			return fmt.Errorf("ompbase: %w", err)
		}
		o.ms[i], o.sim[i] = msSince(t), res.SimSeconds*1e3
	}
	return nil
}

// around runs the first half of the baseline, then timed, then the second
// half, so that a host that drifts while the benchmark runs moves both
// sides of wall_over_omp alike.
func (o *ompBaseline) around(timed func()) error {
	half := len(o.ms) / 2
	if err := o.run(0, half); err != nil {
		return err
	}
	timed()
	return o.run(half, len(o.ms))
}

// ratios fills the two end-to-end ratios over the baseline: simulated time
// over the same first jobs that sim_ms_mean covers, wall over every run.
func (o *ompBaseline) ratios(rep *workloadReport) {
	sim := rep.Metrics["sim_ms_mean"]
	rep.set("sim_speedup_vs_omp", mean(o.sim[:sim.N])/sim.Value, sim.N, "")
	rep.set("wall_over_omp", rep.Metrics["job_ms_p50"].Value/median(o.ms), len(o.ms), "")
}

// baselines times the two programs the framework is compared with: the
// OpenMP-style baseline and the plain single-threaded run.
func baselines(rep *workloadReport, runs int, omp func(i int) (ompbase.Result, error), seq func() error) error {
	base := newOMPBaseline(runs, omp)
	if err := base.run(0, runs); err != nil {
		return err
	}
	rep.set("ompbase.job_ms_p50", median(base.ms), runs, "")
	rep.set("ompbase.sim_ms", mean(base.sim), runs, "")
	if seq != nil {
		t := time.Now()
		if err := seq(); err != nil {
			return fmt.Errorf("seqref: %w", err)
		}
		rep.set("seqref.job_ms", msSince(t), 1, "")
	}
	return nil
}

func measureBatch(c runConfig) (*workloadReport, error) {
	rep := newReport(c)
	b, err := newBatch(c.Def, c.scale(), c.Seed, c.Dir)
	if err != nil {
		return nil, err
	}
	setups, err := timeSetups(c.reps(3), b.setup, b.chooseSources, b.warmup)
	if err != nil {
		return nil, err
	}
	rep.Input = fingerprintInput(b.g, b.assign)
	rep.Attempted++
	if err := b.verify(); err != nil {
		rep.fail(err)
	}
	if c.Trace {
		err = batchTraced(c, rep, b)
	} else {
		rep.set("setup_s", median(setups), len(setups), "")
		err = batchUntraced(c, rep, b)
	}
	rep.Correct = rep.Failed == 0
	return rep, err
}

func batchUntraced(c runConfig, rep *workloadReport, b *batch) error {
	minJobs := c.minJobs()
	base := newOMPBaseline(max(c.reps(11), minJobs), b.omp)
	var st timedStats
	if err := base.around(func() { st = b.timed(rep, c.budget(), minJobs, nil) }); err != nil {
		return err
	}
	setSim(rep, st.Results, minJobs)
	counts(rep, st.Results, minJobs)
	endToEndMetrics(rep, st.LatMS, st.Wall, st.AllocMB, st.Allocs)
	base.ratios(rep)
	return nil
}

// batchTraced alternates untraced and traced jobs, then replays the
// workload's traffic into its layers.
func batchTraced(c runConfig, rep *workloadReport, b *batch) error {
	minJobs := c.minJobs()
	tr := newTracer()
	st := b.timed(rep, c.budget(), max(minJobs, 8), tr)
	rep.Jobs, rep.TimedSeconds = len(st.LatMS), st.Wall.Seconds()
	counts(rep, st.Results, minJobs)
	for name, v := range rep.Exact {
		if v != 0 { // a count of zero is a layer the workload never enters
			rep.set(name, v, min(minJobs, len(st.Results)), "")
		}
	}
	var plain, traced []float64
	for i, lat := range st.LatMS {
		if tracedJob(i) {
			traced = append(traced, lat)
		} else {
			plain = append(plain, lat)
		}
	}
	engineMetrics(rep, st.Results, median(plain))
	spanMetrics(rep, tr.snapshot(), spanJob)
	rep.set("metrics.sink_overhead_frac", median(traced)/median(plain)-1, len(traced), fmt.Sprintf("%d untraced", len(plain)))
	rep.set("gen.generate_ms", b.times.Gen, 1, "")
	rep.set("graph.load_ms", b.times.Load, 1, "")
	if b.assign != nil {
		rep.set("partition.assign_ms", b.times.Partition, 1, "")
	}
	use, identity := b.layers()
	rp := newReplay(b.g, b.assign, b.opts, use, c.reps(11), c.Dir, rep)
	var err error
	if b.generic() {
		err = rp.structured()
	} else {
		err = rp.f32(identity)
	}
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if err := baselines(rep, c.reps(11), b.omp, b.seq); err != nil {
		return err
	}
	return tr.writeJSONL(filepath.Join(c.OutDir, "trace-"+c.Def.Name+".jsonl"))
}

// engineMetrics fills what the engine's own results say about a job: the
// schedule-dependent VecRows range, the simulated phase times of the
// slowest rank, work rate, and retransmissions.
func engineMetrics(rep *workloadReport, results []jobResult, p50MS float64) {
	if len(results) == 0 {
		return
	}
	lo, hi := int64(math.MaxInt64), int64(0)
	var gen, proc, upd, comm []float64
	var retransmits int64
	for _, res := range results {
		var rows int64
		var g, p, u float64
		for _, r := range res.Ranks {
			rows += r.Counters.VecRows
			g, p, u = max(g, r.Phases.Generate), max(p, r.Phases.Process), max(u, r.Phases.Update)
		}
		lo, hi = min(lo, rows), max(hi, rows)
		gen, proc, upd, comm = append(gen, g*1e3), append(proc, p*1e3), append(upd, u*1e3), append(comm, res.CommSeconds*1e3)
		retransmits += res.Retransmits
	}
	n := len(results)
	if hi > 0 {
		rep.set("core.vec_rows_min", float64(lo), n, "")
		rep.set("core.vec_rows_max", float64(hi), n, "")
	}
	rep.set("core.medges_per_s", rep.Exact["core.edges_traversed"]/1e6/(p50MS/1e3), n, "")
	rep.set("machine.sim_generate_ms", mean(gen), n, "")
	rep.set("machine.sim_process_ms", mean(proc), n, "")
	rep.set("machine.sim_update_ms", mean(upd), n, "")
	if len(results[0].Ranks) > 1 {
		rep.set("machine.sim_exchange_ms", mean(comm), n, "")
		rep.set("comm.retransmits", float64(retransmits), n, "")
	}
}

// spanMetrics condenses the traced jobs' spans into per-job layer numbers.
// root names the span that stands for one engine run: the job itself for a
// batch workload, serve.execute for a served one.
func spanMetrics(rep *workloadReport, spans []span, root string) {
	self := selfTimes(spans)
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	type key struct {
		step  int64
		phase string
	}
	var construct []float64
	phaseMS := map[string]float64{}
	var exchangeNS, allNS, checkpointNS float64
	checkpoints, jobs := 0, 0
	for _, r := range spans {
		if r.Name != root || r.End <= r.Start || (r.Parent >= 0 && spans[r.Parent].Step < 0) {
			continue // not an engine run, unfinished, or the daemon's warm-up job
		}
		jobs++
		construct = append(construct, float64(self[r.ID])/1e6)
		slowest := map[key]int64{}
		for _, step := range children[r.ID] {
			if step.Name == spanCheckpoint {
				checkpointNS += float64(step.dur())
				checkpoints++
			}
			for _, ph := range children[step.ID] {
				k := key{ph.Step, ph.Name}
				slowest[k] = max(slowest[k], ph.dur())
				allNS += float64(ph.dur())
				if ph.Name == "core."+metrics.PhaseExchange {
					exchangeNS += float64(ph.dur())
				}
			}
		}
		for k, ns := range slowest {
			phaseMS[k.phase] += float64(ns) / 1e6
		}
	}
	if jobs == 0 {
		return
	}
	for _, phase := range []string{metrics.PhaseGenerate, metrics.PhaseProcess, metrics.PhaseUpdate, metrics.PhaseExchange} {
		if ms, ok := phaseMS["core."+phase]; ok {
			rep.set("core."+phase+"_ms", ms/float64(jobs), jobs, "")
		}
	}
	rep.set("core.construct_ms", mean(construct), jobs, "")
	if exchangeNS > 0 {
		rep.set("core.lockstep_idle_frac", exchangeNS/allNS, jobs, "")
	}
	if checkpoints > 0 {
		rep.set("checkpoint.capture_ms", checkpointNS/float64(checkpoints)/1e6, checkpoints, "")
	}
}

// spanDurationsMS returns the durations of every finished span called name.
func spanDurationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End > s.Start {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// executed returns the records of the first n jobs of the list that ran on
// the engine (not answered from the cache), in list order.
func executed(recs []served, n int) []served {
	var out []served
	for _, r := range recs[:min(n, len(recs))] {
		if r.Err == nil && !r.Status.Cached {
			out = append(out, r)
		}
	}
	return out
}

// servePass runs the timed section against the open daemon and checks every
// answer.
func servePass(s *serveMix, rep *workloadReport, c runConfig) (recs []served, wall time.Duration, allocMB, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	recs, wall = s.run(c.budget(), c.minJobs())
	runtime.ReadMemStats(&m1)
	jobs := float64(max(len(recs), 1))
	allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / jobs
	allocs = float64(m1.Mallocs-m0.Mallocs) / jobs
	for _, r := range recs {
		rep.Attempted++
		if verr := s.verifyJob(r); verr != nil {
			rep.fail(verr)
		}
	}
	return
}

// serveExact takes simulated time and supersteps, the only engine numbers a
// JobResult carries, over the executed jobs of the list's fixed prefix.
func serveExact(rep *workloadReport, first []served) (simMS float64) {
	var sims, steps []float64
	for _, r := range first {
		sims = append(sims, r.Status.Result.SimSeconds*1e3)
		steps = append(steps, float64(r.Status.Result.Iterations))
	}
	rep.Exact["core.supersteps"] = mean(steps)
	return mean(sims)
}

func latencies(recs []served, keep func(served) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Err == nil && keep(r) {
			out = append(out, r.LatencyMS)
		}
	}
	return out
}

func measureServe(c runConfig) (*workloadReport, error) {
	rep := newReport(c)
	s, err := newServeMix(c.Def, c.scale(), c.Seed, c.Dir)
	if err != nil {
		return nil, err
	}
	defer s.stop() //nolint:errcheck // the success path checks stop's error itself
	reps := c.reps(3)
	if c.Trace {
		reps = 1 // its daemons are opened pass by pass
	}
	// Shutting the previous repetition's daemon down is not set-up either.
	choose := func() error {
		if err := s.stop(); err != nil {
			return err
		}
		return s.chooseJobs(c.blocks())
	}
	open := func() error { return s.open(nil) }
	setups, err := timeSetups(reps, s.setup, choose, open)
	if err != nil {
		return nil, err
	}
	if rep.Input, err = s.fingerprint(); err != nil {
		return nil, err
	}
	if c.Trace {
		err = serveTraced(c, rep, s)
	} else {
		rep.set("setup_s", median(setups), len(setups), "")
		err = serveUntraced(c, rep, s)
	}
	if err == nil {
		err = s.stop()
	}
	rep.Correct = rep.Failed == 0
	return rep, err
}

func allServed(served) bool { return true }

func serveUntraced(c runConfig, rep *workloadReport, s *serveMix) error {
	// The baseline's jobs are the specs of the list's fixed prefix that the
	// engine executes (PageRank is answered from the cache).
	specs := s.engineSpecs(c.minJobs())
	base := newOMPBaseline(max(c.reps(11), len(specs)), func(i int) (ompbase.Result, error) { return s.omp(specs[i%len(specs)]) })
	var (
		recs            []served
		wall            time.Duration
		allocMB, allocs float64
	)
	if err := base.around(func() { recs, wall, allocMB, allocs = servePass(s, rep, c) }); err != nil {
		return err
	}
	rep.Attempted++
	if err := s.verifyWarm(); err != nil {
		rep.fail(err)
	}
	first := executed(recs, c.minJobs())
	if len(first) != len(specs) {
		return fmt.Errorf("%d of the %d engine jobs in the fixed prefix completed: %v", len(first), len(specs), rep.Failures)
	}
	rep.set("sim_ms_mean", serveExact(rep, first), len(first), simNote)
	endToEndMetrics(rep, latencies(recs, allServed), wall, allocMB, allocs)
	base.ratios(rep)
	return nil
}

// serveTraced runs one pass against the open daemon with its default
// Collector and one against a daemon whose sink is the benchmark's on top of
// a Collector, then replays the daemon's traffic into its layers.
func serveTraced(c runConfig, rep *workloadReport, s *serveMix) error {
	plain, _, _, _ := servePass(s, rep, c)
	if err := s.stop(); err != nil {
		return err
	}
	tr := newTracer()
	if err := s.open(tr); err != nil {
		return err
	}
	recs, wall, _, _ := servePass(s, rep, c)
	rep.Jobs, rep.TimedSeconds = len(recs), wall.Seconds()
	stateMB := dirSizeMB(s.stateDir)
	shed := s.srv.Shed()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := s.stop(); err != nil {
		return err
	}

	first := executed(recs, c.minJobs())
	if len(first) == 0 {
		return fmt.Errorf("no job of the first block completed: %v", rep.Failures)
	}
	serveExact(rep, first)
	rep.set("core.supersteps", rep.Exact["core.supersteps"], len(first), "")
	spans := tr.snapshot()
	spanMetrics(rep, spans, spanExecute)
	rep.set("metrics.sink_overhead_frac", median(latencies(recs, allServed))/median(latencies(plain, allServed))-1, len(recs), fmt.Sprintf("%d untraced", len(plain)))
	rep.set("gen.generate_ms", s.times.Gen, 1, "")
	rep.set("graph.load_ms", s.times.Load, 1, "")

	var submits []float64
	cached, retries := 0, 0
	for _, r := range recs {
		if r.Err != nil {
			continue
		}
		submits = append(submits, r.SubmitMS)
		if r.Status.Cached {
			cached++
		} else {
			retries += r.Status.Attempts - 1
		}
	}
	class := func(algo string) func(served) bool {
		return func(r served) bool { return r.Spec.Algorithm == algo && !r.Status.Cached }
	}
	setP50 := func(name string, xs []float64) {
		if len(xs) > 0 {
			rep.set(name, median(xs), len(xs), "")
		}
	}
	setP50("serve.submit_ms_p50", submits)
	setP50("serve.queue_wait_ms_p50", spanDurationsMS(spans, spanQueueWait))
	setP50("serve.execute_ms_p50", spanDurationsMS(spans, spanExecute))
	setP50("serve.cached_ms_p50", latencies(recs, func(r served) bool { return r.Status.Cached }))
	setP50("serve.bfs_ms_p50", latencies(recs, class(serve.AlgoBFS)))
	setP50("serve.sssp_ms_p50", latencies(recs, class(serve.AlgoSSSP)))
	rep.set("serve.cache_hit_frac", float64(cached)/float64(max(len(recs), 1)), len(recs), "")
	rep.set("serve.retries", float64(retries), len(recs), "")
	rep.set("serve.shed", float64(shed), len(recs), "")
	rep.set("serve.state_dir_mb", stateMB, 1, "")
	rep.set("serve.heap_after_mb", float64(ms.HeapAlloc)/(1<<20), 1, "")

	opts, assign, err := s.group()
	if err != nil {
		return err
	}
	use := layerUse{Sum: true, Min: true, Sorted: true, Plain: true, Checkpoint: true}
	rp := newReplay(s.g, assign, opts, use, c.reps(11), c.Dir, rep)
	if err := rp.f32(float32(math.Inf(1))); err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	specs := s.engineSpecs(c.minJobs())
	omp := func(i int) (ompbase.Result, error) { return s.omp(specs[i%len(specs)]) }
	if err := baselines(rep, c.reps(11), omp, nil); err != nil {
		return err
	}
	return tr.writeJSONL(filepath.Join(c.OutDir, "trace-"+c.Def.Name+".jsonl"))
}
