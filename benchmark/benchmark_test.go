package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hetgraph/internal/metrics"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so that tail must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		pct  int
	}{
		{26, 16, 61},   // ten samples (17..26) lie beyond the 16th
		{120, 110, 91}, // ten samples beyond the 110th
		{20, 10, 50},
		{19, 10, 50}, // below twenty samples the tail is the median
		{3, 2, 50},
		{2, 1.5, 50},
	} {
		got, pct := tail(series(c.n))
		if got != c.want || pct != c.pct {
			t.Errorf("tail of %d samples = %v at p%d, want %v at p%d", c.n, got, pct, c.want, c.pct)
		}
	}
	if v, pct := tail(nil); v != 0 || pct != 50 {
		t.Errorf("tail of no samples = %v at p%d", v, pct)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(series(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
	if got := quartileSpread([]float64{10, 12}); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("spread of two values = %v, want 3/11", got)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},    // overlaps span 1: ranks run concurrently
		{ID: 3, Parent: 0, Start: 90, End: 120},   // clipped to the parent
		{ID: 4, Parent: 1, Start: 12, End: 18},    // a grandchild counts against its parent only
		{ID: 5, Parent: -1, Start: 200, End: 260}, // no children
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6, 60}
	for id, got := range selfTimes(spans) {
		if got != want[id] {
			t.Errorf("self time of span %d = %d, want %d", id, got, want[id])
		}
	}
}

func TestPhaseBurstIsLaidOutBackwardsFromArrival(t *testing.T) {
	tr := newTracer()
	root := tr.add(span{Parent: -1, Name: spanJob, Start: 0, End: 100})
	b := phaseBurst{arrived: 100}
	for _, p := range []struct {
		phase string
		ns    int64
	}{{metrics.PhaseGenerate, 10}, {metrics.PhaseExchange, 5}, {metrics.PhaseProcess, 3}, {metrics.PhaseUpdate, 2}} {
		b.samples = append(b.samples, metrics.PhaseSample{Rank: 1, Superstep: 7, Phase: p.phase, WallNS: p.ns})
	}
	b.flush(tr, root, 0)
	got := tr.snapshot()[1:]
	want := []span{
		{Name: spanSuperstep, Parent: root, Start: 80, End: 100},
		{Name: "core.generate", Parent: 1, Start: 80, End: 90},
		{Name: "core.exchange", Parent: 1, Start: 90, End: 95},
		{Name: "core.process", Parent: 1, Start: 95, End: 98},
		{Name: "core.update", Parent: 1, Start: 98, End: 100},
	}
	if len(got) != len(want) {
		t.Fatalf("burst made %d spans, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Parent != w.Parent || g.Start != w.Start || g.End != w.End || g.Rank != 1 || g.Step != 7 {
			t.Errorf("span %d = %+v, want %s under %d over [%d, %d]", i, g, w.Name, w.Parent, w.Start, w.End)
		}
	}
	if self := selfTimes(tr.snapshot()); self[root] != 80 || self[1] != 0 {
		t.Errorf("self times root %d superstep %d, want 80 and 0", self[root], self[1])
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		base, new     float64
		better        string
		bound, spread float64
		want          string
	}{
		{100, 104, "lower", 0.06, 0, verdictSame},
		{100, 107, "lower", 0.06, 0, verdictWorse},
		{100, 90, "lower", 0.06, 0, verdictBetter},
		{100, 93, "higher", 0.06, 0, verdictWorse},
		{100, 110, "higher", 0.06, 0, verdictBetter},
		{100, 120, "lower", 0.06, 0.09, verdictUnresolved},
		{0, 1, "lower", 0.06, 0, verdictUnresolved},
	} {
		if got := verdict(c.base, c.new, c.better, c.bound, c.spread); got != c.want {
			t.Errorf("verdict(%v -> %v, %s, bound %v, spread %v) = %s, want %s", c.base, c.new, c.better, c.bound, c.spread, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec holds BENCHMARK.json and spec.go to each
// other: same names in the same order, same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var bj benchmarkJSON
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bj.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), spec.go says %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range got {
			unique(m.Name)
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
				t.Errorf("%s metric %d is %+v, spec.go says %+v", kind, i, m, w)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if m.Bound < 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v is outside [0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", bj.EndToEnd, endToEnd)
	check("per-layer", bj.PerLayer, perLayer)
	for _, name := range exactCounts {
		if unitOf(name) != "count" {
			t.Errorf("exact count %s is not a per-layer count", name)
		}
	}
}

// TestQuickSmoke walks every workload path at smoke sizes (2000 vertices,
// two jobs, one block of the mix): untraced run, traced run, layer replays,
// oracles. It also holds the metric names to spec.go in both directions.
func TestQuickSmoke(t *testing.T) {
	out := t.TempDir()
	emitted := map[string]bool{}
	var suite suiteReport
	for _, def := range workloads {
		res := &workloadResult{Name: def.Name}
		for _, traced := range []bool{false, true} {
			rep, err := measure(runConfig{Def: def, Seed: 7, Trace: traced, Quick: true, OutDir: out, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", def.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", def.Name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			for name := range rep.Metrics {
				if unitOf(name) == "" {
					t.Errorf("%s emits %q, which spec.go does not define", def.Name, name)
				}
				emitted[name] = true
			}
			line, err := rep.driverLine()
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				res.PerLayer = rep.Metrics
			} else {
				res.Input, res.Exact, res.EndToEnd = rep.Input, rep.Exact, rep.Metrics
			}
			if len(parsed.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): result line has %d metrics, want %d", def.Name, traced, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := parsed.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s: result line lacks %s in %s", def.Name, d.Name, d.Unit)
				} else if !traced && !(*m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.Name, d.Name, *m.Value)
				}
			}
			res.Attempted += rep.Attempted
		}
		suite.Workloads = append(suite.Workloads, res)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !emitted[d.Name] {
				t.Errorf("no workload emits %s", d.Name)
			}
		}
	}
	for _, def := range workloads {
		if info, err := os.Stat(filepath.Join(out, "trace-"+def.Name+".jsonl")); err != nil || info.Size() == 0 {
			t.Errorf("%s left no trace file: %v", def.Name, err)
		}
	}

	// The layers each workload is there to load or to bypass.
	layer := func(workload, metric string) bool {
		_, ok := suite.workload(workload).PerLayer[metric]
		return ok
	}
	for _, w := range workloads {
		pagerank := w.Name == "pagerank-cpu-mic" || w.Name == "serve-mix" // the mix holds PageRank specs
		if layer(w.Name, "vec.sortlane_ns_per_msg") != pagerank || layer(w.Name, "comm.sorting_combine_ns_per_msg") != pagerank {
			t.Errorf("%s: sorted folds and the sorting combiner belong to PageRank only", w.Name)
		}
		if layer(w.Name, "checkpoint.commit_ms_p50") != (w.Name == "serve-mix") || layer(w.Name, "checkpoint.capture_ms") != (w.Name == "serve-mix") {
			t.Errorf("%s: checkpoint.* belongs to serve-mix only", w.Name)
		}
		if !layer(w.Name, "metrics.sink_overhead_frac") || !layer(w.Name, "core.construct_ms") {
			t.Errorf("%s: no sink overhead or construction time", w.Name)
		}
	}
	for name := range suite.workload("sssp-cpu-lock").PerLayer {
		for _, prefix := range []string{"queue.", "pipeline.", "comm."} {
			if strings.HasPrefix(name, prefix) {
				t.Errorf("sssp-cpu-lock reports %s, a layer it must bypass", name)
			}
		}
	}

	// A run compares equal to itself; a drifted input or a new failure does not.
	base := filepath.Join(out, "base.json")
	if err := writeJSONFile(base, suite); err != nil {
		t.Fatal(err)
	}
	bounds := filepath.Join("..", "BENCHMARK.json")
	var buf bytes.Buffer
	if worse, err := compareFiles(&buf, base, base+","+base, bounds); err != nil || worse {
		t.Errorf("a run against itself: worse %v, err %v\n%s", worse, err, buf.String())
	}
	drift := filepath.Join(out, "drift.json")
	suite.Workloads[0].Input.Edges++
	suite.Workloads[1].Failed++
	if err := writeJSONFile(drift, suite); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	worse, err := compareFiles(&buf, base, drift, bounds)
	if err != nil || !worse {
		t.Errorf("drifted input and new failure: worse %v, err %v", worse, err)
	}
	if !strings.Contains(buf.String(), "workload changed") || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("comparison does not name the drift or the failure:\n%s", buf.String())
	}
}
