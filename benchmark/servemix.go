package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hetgraph/internal/apps"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/core"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/ompbase"
	"hetgraph/internal/partition"
	"hetgraph/internal/seqref"
	"hetgraph/internal/serve"
)

const (
	// The mix is dealt in seed-shuffled blocks of twelve: 6 BFS + 4 SSSP with
	// distinct sources and 2 identical PageRank specs. The 50/33/17 split
	// keeps the median inside the BFS mode and the tail inside the SSSP
	// mode instead of on a mode boundary.
	blockBFS, blockSSSP, blockPR = 6, 4, 2
	blockJobs                    = blockBFS + blockSSSP + blockPR
	// maxBlocks bounds the job list (and the sources chosen for it) at about
	// three times what the daemon completes in a run on the growth host; a
	// daemon that outruns it ends the timed section early.
	maxBlocks = 18
	// serveClients is the daemon's default worker count, so the queue stays
	// empty unless a worker stalls.
	serveClients = 2
	pollEvery    = 2 * time.Millisecond
)

// served is the client's record of one job.
type served struct {
	Index     int
	Spec      serve.JobSpec
	Status    serve.JobStatus
	LatencyMS float64
	SubmitMS  float64
	Err       error
}

// serveMix drives serve.New with cmd/hetgraph-serve's defaults (CPU+MIC,
// checkpoint every superstep to a real directory, 2 workers, queue 8,
// a metrics.Collector sink) behind httptest.NewServer.
type serveMix struct {
	def   workloadDef
	sc    scale
	seeds subSeeds
	dir   string

	g     *graph.CSR
	times setupTimes
	specs []serve.JobSpec // the whole seed-derived job list

	srv      *serve.Server
	ts       *httptest.Server
	sink     *serveSink // nil when untraced
	stateDir string
	starts   int
	warm     served // the warm-up PageRank job
}

func newServeMix(def workloadDef, sc scale, seed int64, dir string) (*serveMix, error) {
	s := &serveMix{def: def, sc: sc, seeds: deriveSeeds(seed), dir: dir}
	var err error
	s.seeds.Graph, err = powerLawSeed(sc.PowerLawN, s.seeds.Graph)
	return s, err
}

func (s *serveMix) setup() error {
	var err error
	s.g, s.times, err = powerLawInput(s.sc, s.seeds, true, s.dir)
	return err
}

// chooseJobs deals the job list; like batch.chooseSources it runs once and
// outside set-up time.
func (s *serveMix) chooseJobs(blocks int) error {
	if s.specs != nil {
		return nil
	}
	sources := pickSources(s.g, s.seeds.Order, blocks*(blockBFS+blockSSSP))
	if len(sources) < blockBFS+blockSSSP {
		return fmt.Errorf("%s: only %d vertices reach half the graph", s.def.Name, len(sources))
	}
	blocks = min(blocks, len(sources)/(blockBFS+blockSSSP))
	rng := rand.New(rand.NewSource(s.seeds.Order + 1))
	for b := 0; b < blocks; b++ {
		block := make([]serve.JobSpec, 0, blockJobs)
		for i := 0; i < blockBFS+blockSSSP; i++ {
			algo := serve.AlgoBFS
			if i >= blockBFS {
				algo = serve.AlgoSSSP
			}
			block = append(block, serve.JobSpec{Algorithm: algo, Source: int64(sources[0])})
			sources = sources[1:]
		}
		for i := 0; i < blockPR; i++ {
			block = append(block, serve.JobSpec{Algorithm: serve.AlgoPageRank})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		s.specs = append(s.specs, block...)
	}
	return nil
}

// start opens a daemon on a fresh state directory. A traced daemon gets the
// benchmark's sink, which still feeds a Collector as the default does.
func (s *serveMix) start(tr *tracer) error {
	s.starts++
	s.stateDir = filepath.Join(s.dir, fmt.Sprintf("state-%d", s.starts))
	col := metrics.NewCollector()
	var sink metrics.Sink = col
	s.sink = nil
	if tr != nil {
		s.sink = newServeSink(col, tr)
		sink = s.sink
	}
	srv, err := serve.New(serve.Config{Graph: s.g, GraphPath: "graph.bin", StateDir: s.stateDir, Metrics: sink})
	if err != nil {
		return err
	}
	s.srv = srv
	s.ts = httptest.NewServer(srv.Handler())
	return nil
}

// stop shuts the daemon down and removes its state.
func (s *serveMix) stop() error {
	if s.srv == nil {
		return nil
	}
	s.ts.Close()
	err := s.srv.Close()
	s.srv, s.ts = nil, nil
	if rmErr := os.RemoveAll(s.stateDir); err == nil {
		err = rmErr
	}
	return err
}

// group returns the device group and assignment the daemon gives its jobs
// by default: CPU + MIC, continuous partition weighted by thread count.
func (s *serveMix) group() ([]core.Options, []int32, error) {
	opts := groupOptions(core.Options{Vectorized: true}, machine.CPU(), machine.MIC())
	assign, err := partition.MakeN(partition.MethodContinuous, s.g, []int{opts[0].Dev.Threads(), opts[1].Dev.Threads()})
	return opts, assign, err
}

func (s *serveMix) fingerprint() (inputFingerprint, error) {
	_, assign, err := s.group()
	return fingerprintInput(s.g, assign), err
}

// open starts a daemon and warms it.
func (s *serveMix) open(tr *tracer) error {
	if err := s.start(tr); err != nil {
		return err
	}
	if err := s.warmup(); err != nil {
		return fmt.Errorf("serve-mix: warm-up job: %w", err)
	}
	return nil
}

// warmup executes the one PageRank job of the run, so that every PageRank
// spec in the timed section is a result-cache hit whatever the interleaving
// of the two clients.
func (s *serveMix) warmup() error {
	s.warm = s.submit(-1, serve.JobSpec{Algorithm: serve.AlgoPageRank})
	if s.warm.Err != nil {
		return s.warm.Err
	}
	if s.warm.Status.Cached {
		return fmt.Errorf("serve-mix: warm-up job was answered from the cache")
	}
	return nil
}

// submit POSTs one job and polls it to a terminal state, as a client of the
// HTTP API must.
func (s *serveMix) submit(index int, spec serve.JobSpec) served {
	rec := served{Index: index, Spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.Err = err
		return rec
	}
	client := s.ts.Client()
	t0 := time.Now()
	resp, err := client.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Err = decodeStatus(resp, http.StatusAccepted, &rec.Status)
	rec.SubmitMS = msSince(t0)
	for rec.Err == nil && !terminal(rec.Status.State) {
		time.Sleep(pollEvery)
		resp, err := client.Get(s.ts.URL + "/jobs/" + rec.Status.ID)
		if err != nil {
			rec.Err = err
			break
		}
		rec.Err = decodeStatus(resp, http.StatusOK, &rec.Status)
	}
	t1 := time.Now()
	rec.LatencyMS = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	if rec.Err == nil && rec.Status.State != serve.StateCompleted {
		rec.Err = fmt.Errorf("job %s ended %s: %s", rec.Status.ID, rec.Status.State, rec.Status.Error)
	}
	if s.sink != nil && rec.Status.ID != "" {
		s.sink.clientWindow(rec.Status.ID, index, t0, rec.SubmitMS, t1)
	}
	return rec
}

func terminal(state string) bool {
	return state == serve.StateCompleted || state == serve.StateFailed || state == serve.StateCanceled
}

func decodeStatus(resp *http.Response, want int, st *serve.JobStatus) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d (shed or rejected)", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(st)
}

// run is the timed section: serveClients closed-loop clients take the next
// spec of the list until the budget is spent (and minJobs are done) or the
// list ends.
func (s *serveMix) run(budget time.Duration, minJobs int) (recs []served, wall time.Duration) {
	minJobs = min(minJobs, len(s.specs))
	recs = make([]served, len(s.specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.specs) || (i >= minJobs && time.Since(start) >= budget) {
					next.Add(-1)
					return
				}
				recs[i] = s.submit(i, s.specs[i])
			}
		}()
	}
	wg.Wait()
	return recs[:next.Load()], time.Since(start)
}

func fingerprint(snapshot []byte) string {
	h := fnv.New64a()
	h.Write(snapshot)
	return fmt.Sprintf("%016x", h.Sum64())
}

// verifyWarm checks the warm-up PageRank job twice: its fingerprint equals
// that of a direct core.RunF32Hetero + Snapshot for the same spec (the
// daemon adds nothing to the result), and that direct result is within
// tolerance of the power-iteration oracle.
func (s *serveMix) verifyWarm() error {
	opts, assign, err := s.group()
	if err != nil {
		return err
	}
	for r := range opts {
		opts[r].MaxIterations = serve.DefaultPageRankIterations
	}
	app := apps.NewPageRank()
	if _, err := core.RunF32Hetero(app, s.g, assign, opts...); err != nil {
		return err
	}
	snap, err := app.Snapshot()
	if err != nil {
		return err
	}
	if got, want := s.warm.Status.Result.ResultFingerprint, fingerprint(snap); got != want {
		return fmt.Errorf("serve-mix: pagerank fingerprint %s, a direct run gives %s", got, want)
	}
	return checkPageRank(s.g, app.Ranks, serve.DefaultPageRankIterations)
}

// verifyJob checks one served job: traversal fingerprints against the
// fingerprint of the seqref result in the app's own snapshot encoding
// (both are exact, so equal bytes), PageRank against the warm-up job's
// fingerprint with cached:true.
func (s *serveMix) verifyJob(r served) error {
	if r.Err != nil {
		return r.Err
	}
	res := r.Status.Result
	if res == nil {
		return fmt.Errorf("job %s completed without a result", r.Status.ID)
	}
	src := graph.VertexID(r.Spec.Source)
	var want string
	switch r.Spec.Algorithm {
	case serve.AlgoBFS:
		want = fingerprint(checkpoint.EncodeI32(seqref.ClassicBFS(s.g, src)))
	case serve.AlgoSSSP:
		want = fingerprint(checkpoint.EncodeF32(seqref.ClassicSSSP(s.g, src)))
	case serve.AlgoPageRank:
		if !r.Status.Cached {
			return fmt.Errorf("job %s: repeated pagerank spec was executed, not served from the cache", r.Status.ID)
		}
		want = s.warm.Status.Result.ResultFingerprint
	}
	if res.ResultFingerprint != want {
		return fmt.Errorf("job %s (%s from %d): fingerprint %s, oracle gives %s", r.Status.ID, r.Spec.Algorithm, src, res.ResultFingerprint, want)
	}
	return nil
}

// engineSpecs returns the specs among the first n of the list that run on
// the engine: all but the PageRank ones.
func (s *serveMix) engineSpecs(n int) []serve.JobSpec {
	var out []serve.JobSpec
	for _, spec := range s.specs[:min(n, len(s.specs))] {
		if spec.Algorithm != serve.AlgoPageRank {
			out = append(out, spec)
		}
	}
	return out
}

// omp runs the OpenMP-style baseline of one executed spec on machine.CPU().
func (s *serveMix) omp(spec serve.JobSpec) (ompbase.Result, error) {
	src := graph.VertexID(spec.Source)
	var app core.AppF32 = apps.NewBFS(src)
	if spec.Algorithm == serve.AlgoSSSP {
		app = apps.NewSSSP(src)
	}
	return ompbase.RunF32(app, s.g, machine.CPU(), 0, 0)
}

// serveSink is the benchmark's sink for a traced daemon. The daemon's
// samples carry no job identity, so a phase sample is given to the running
// job it continues: the one whose open burst it extends, else the one
// waiting for that superstep, else (two jobs at the same superstep) the one
// silent for longest. The engine reports a superstep's samples back to back,
// which makes the rule exact except when two jobs finish the same superstep
// within microseconds of each other.
type serveSink struct {
	*metrics.Collector
	tr *tracer

	mu      sync.Mutex
	jobs    map[string]*servedJob
	running []*servedJob
}

type servedJob struct {
	root     int // the client's job span; its ID is the job identifier of every span under it
	exec     int // serve.execute span, -1 until started
	admitted int64
	burst    phaseBurst
	nextStep int64
	lastSeen int64
}

func newServeSink(col *metrics.Collector, tr *tracer) *serveSink {
	return &serveSink{Collector: col, tr: tr, jobs: map[string]*servedJob{}}
}

var phaseOrder = map[string]int{metrics.PhaseGenerate: 0, metrics.PhaseExchange: 1, metrics.PhaseProcess: 2, metrics.PhaseUpdate: 3}

// owner picks the running job a sample of superstep step and phase belongs to.
func (s *serveSink) owner(step int64, phase string) *servedJob {
	var best *servedJob
	bestRank := 3
	for _, j := range s.running {
		rank := 3
		if n := len(j.burst.samples); n > 0 {
			last := j.burst.samples[n-1]
			if last.Superstep == step && phaseOrder[last.Phase] < phaseOrder[phase] {
				rank = 0
			}
		} else if j.nextStep == step {
			rank = 1
		}
		if rank < bestRank || (rank == bestRank && rank < 3 && j.lastSeen < best.lastSeen) {
			best, bestRank = j, rank
		}
	}
	return best
}

// RecordPhase implements metrics.Sink.
func (s *serveSink) RecordPhase(p metrics.PhaseSample) {
	s.Collector.RecordPhase(p)
	now := s.tr.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.owner(p.Superstep, p.Phase)
	if j == nil {
		return
	}
	j.burst.samples = append(j.burst.samples, p)
	j.burst.arrived, j.lastSeen = now, now
	if p.Phase == metrics.PhaseUpdate {
		j.burst.flush(s.tr, j.exec, j.root)
		j.nextStep = p.Superstep + 1
	}
}

// RecordEvent implements metrics.Sink: job lifecycle events open and close
// the daemon-side spans, timed engine events become spans of the job at
// that superstep boundary.
func (s *serveSink) RecordEvent(e metrics.Event) {
	s.Collector.RecordEvent(e)
	at := s.tr.at(e.UnixNano)
	id, _, _ := strings.Cut(e.Detail, " ")
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case metrics.EventJobAdmitted:
		root := s.tr.add(span{Parent: -1, Name: spanJob, Start: at, End: at})
		s.tr.update(root, func(r *span) { r.Job = root })
		s.jobs[id] = &servedJob{root: root, exec: -1, admitted: at}
	case metrics.EventJobStarted:
		if j := s.jobs[id]; j != nil && j.exec < 0 {
			j.lastSeen = at
			s.tr.add(span{Parent: j.root, Job: j.root, Name: spanQueueWait, Start: j.admitted, End: at})
			j.exec = s.tr.add(span{Parent: j.root, Job: j.root, Name: spanExecute, Start: at, End: at})
			s.running = append(s.running, j)
		}
	case metrics.EventJobCompleted, metrics.EventJobFailed, metrics.EventJobCanceled:
		j := s.jobs[id]
		if j == nil || j.exec < 0 {
			return
		}
		j.burst.flush(s.tr, j.exec, j.root)
		s.tr.update(j.exec, func(x *span) { x.End = at })
		for i, r := range s.running {
			if r == j {
				s.running = append(s.running[:i], s.running[i+1:]...)
				break
			}
		}
	default:
		if e.WallNS <= 0 {
			return
		}
		for _, j := range s.running {
			if j.nextStep == e.Superstep {
				s.tr.add(span{Parent: j.exec, Job: j.root, Name: eventSpanName(e.Kind), Rank: e.Rank, Step: e.Superstep, Start: at - e.WallNS, End: at})
				return
			}
		}
	}
}

// clientWindow widens a job's root span to what its client saw and adds the
// POST round trip under it.
func (s *serveSink) clientWindow(id string, index int, t0 time.Time, submitMS float64, t1 time.Time) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return
	}
	start := s.tr.at(t0.UnixNano())
	s.tr.update(j.root, func(r *span) { r.Step, r.Start, r.End = int64(index), start, s.tr.at(t1.UnixNano()) })
	s.tr.add(span{Parent: j.root, Job: j.root, Name: spanSubmit, Start: start, End: start + int64(submitMS*1e6)})
}
