package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"hetgraph/internal/metrics"
)

// Span names. A job's root span covers fresh app to result; under it sit one
// superstep span per rank and superstep, each holding its phase spans, and
// one span per engine event that has a duration. serve-mix adds the client's
// view above the engine's (see serveSink).
const (
	spanJob        = "job"
	spanSuperstep  = "superstep"
	spanCheckpoint = "checkpoint.capture"
	spanSubmit     = "serve.submit"
	spanQueueWait  = "serve.queue_wait"
	spanExecute    = "serve.execute"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is the span that caused
// this one (-1 for a job's root) and Job the identifier they share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Step   int64  `json:"superstep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int64  `json:"events,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the benchmark ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

func (t *tracer) at(unixNano int64) int64 { return unixNano - t.origin.UnixNano() }

// add stores s under a fresh ID and returns the ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// update rewrites a stored span in place (a root span's end is only known
// once the job has returned).
func (t *tracer) update(id int, f func(*span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.spans[id])
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its child spans cover. Children of concurrent ranks
// overlap, so the covered part is the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p.ID] = p.dur() - covered
	}
	return self
}

// phaseBurst collects the phase samples one rank records for one superstep.
// The engine reports them back to back once the superstep is over, each with
// its duration but no start time, so the burst is laid out backwards from
// the moment its last sample arrived.
type phaseBurst struct {
	samples []metrics.PhaseSample
	arrived int64
}

// flush turns the burst into a superstep span with consecutive phase spans
// under parent, ending at the burst's arrival time.
func (b *phaseBurst) flush(tr *tracer, parent, job int) {
	if len(b.samples) == 0 {
		return
	}
	var total int64
	for _, s := range b.samples {
		total += s.WallNS
	}
	first := b.samples[0]
	step := tr.add(span{Parent: parent, Job: job, Name: spanSuperstep, Rank: first.Rank, Step: first.Superstep, Start: b.arrived - total, End: b.arrived})
	at := b.arrived - total
	for _, s := range b.samples {
		tr.add(span{Parent: step, Job: job, Name: "core." + s.Phase, Rank: s.Rank, Step: s.Superstep, Start: at, End: at + s.WallNS, Events: s.Events})
		at += s.WallNS
	}
	b.samples = b.samples[:0]
}

// jobSink is the benchmark's own metrics.Sink for one batch job: it turns
// the engine's phase samples and timed events into spans under the job's
// root span. Ranks record concurrently.
type jobSink struct {
	tr   *tracer
	job  int
	root int

	mu     sync.Mutex
	bursts map[int]*phaseBurst // by rank
}

// startJob opens a root span for job and returns the sink to run it with.
func (t *tracer) startJob(job int) *jobSink {
	root := t.add(span{Parent: -1, Job: job, Name: spanJob, Start: t.now()})
	return &jobSink{tr: t, job: job, root: root, bursts: map[int]*phaseBurst{}}
}

// finish closes the root span and flushes the bursts still open (the
// convergence-detecting superstep records no update phase).
func (s *jobSink) finish() {
	end := s.tr.now()
	s.mu.Lock()
	for _, b := range s.bursts {
		b.flush(s.tr, s.root, s.job)
	}
	s.mu.Unlock()
	s.tr.update(s.root, func(r *span) { r.End = end })
}

// RecordPhase implements metrics.Sink.
func (s *jobSink) RecordPhase(p metrics.PhaseSample) {
	now := s.tr.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bursts[p.Rank]
	if b == nil {
		b = &phaseBurst{}
		s.bursts[p.Rank] = b
	}
	if len(b.samples) > 0 && b.samples[0].Superstep != p.Superstep {
		b.flush(s.tr, s.root, s.job)
	}
	b.samples = append(b.samples, p)
	b.arrived = now
	if p.Phase == metrics.PhaseUpdate {
		b.flush(s.tr, s.root, s.job)
	}
}

// RecordEvent implements metrics.Sink: an event with a duration becomes a
// span ending when the event was recorded.
func (s *jobSink) RecordEvent(e metrics.Event) {
	if e.WallNS <= 0 {
		return
	}
	end := s.tr.at(e.UnixNano)
	s.tr.add(span{Parent: s.root, Job: s.job, Name: eventSpanName(e.Kind), Rank: e.Rank, Step: e.Superstep, Start: end - e.WallNS, End: end})
}

func eventSpanName(kind string) string {
	if kind == metrics.EventCheckpoint {
		return spanCheckpoint
	}
	return "event." + kind
}
