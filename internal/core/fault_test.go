package core_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/comm"
	"hetgraph/internal/core"
	"hetgraph/internal/fault"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/partition"
	"hetgraph/internal/seqref"
)

// chaosGraph is a small weighted power-law graph for fault-injection runs
// (smaller than testGraph so the many chaos scenarios stay fast).
func chaosGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.PowerLaw(gen.PowerLawConfig{N: 700, MeanDeg: 7, Alpha: 2.2, FrontBias: 0.7, Locality: 0.6, LocalWindow: 0.05, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	wg, err := gen.WithWeights(g, 0, 10, 22)
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

func chaosAssign(t testing.TB, g *graph.CSR) []int32 {
	t.Helper()
	assign, err := partition.Make(partition.MethodRoundRobin, g, partition.Ratio{A: 1, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

func chaosOpts(iters, ckEvery int, plan string, t testing.TB) (core.Options, core.Options) {
	t.Helper()
	var inj *fault.Injector
	if plan != "" {
		p, err := fault.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		inj, err = fault.NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
	}
	opt0 := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true,
		MaxIterations: iters, CheckpointEvery: ckEvery, Fault: inj}
	opt1 := core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true,
		MaxIterations: iters}
	return opt0, opt1
}

// TestHeteroPageRankDegradesAfterDrop is the acceptance property: a rank-1
// exchange failure injected at superstep k must finish single-device with a
// PageRank result matching the never-failed single-device run within
// tolerance, for several k and checkpoint intervals — including k=0, where
// only the superstep-0 initial snapshot exists.
func TestHeteroPageRankDegradesAfterDrop(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8
	want := seqref.ClassicPageRank(g, 0.85, iters)

	for _, ckEvery := range []int{1, 2} {
		for _, k := range []int64{0, 1, 3, 5} {
			t.Run(fmt.Sprintf("every=%d/drop@%d", ckEvery, k), func(t *testing.T) {
				app := apps.NewPageRank()
				opt0, opt1 := chaosOpts(iters, ckEvery, fmt.Sprintf("rank1:drop@%d", k), t)
				res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Degraded {
					t.Fatal("run did not degrade despite injected drop")
				}
				if res.FailedRank != 1 {
					t.Fatalf("FailedRank = %d, want 1", res.FailedRank)
				}
				if res.FailedSuperstep != k {
					t.Errorf("FailedSuperstep = %d, want %d", res.FailedSuperstep, k)
				}
				// The restored checkpoint is the last boundary at or before
				// the failure.
				wantResume := (k / int64(ckEvery)) * int64(ckEvery)
				if res.ResumedSuperstep != wantResume {
					t.Errorf("ResumedSuperstep = %d, want %d", res.ResumedSuperstep, wantResume)
				}
				if res.Iterations != iters {
					t.Fatalf("Iterations = %d, want %d (resumed %d + recovery %d)",
						res.Iterations, iters, res.ResumedSuperstep, res.Recovery.Iterations)
				}
				for v := range want {
					diff := math.Abs(float64(app.Ranks[v] - want[v]))
					if diff > 2e-3*math.Max(1, float64(want[v])) {
						t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app.Ranks[v], want[v], diff)
					}
				}
			})
		}
	}
}

// TestHeteroSSSPDegradesAfterDrop checks the non-fixed-frontier path: SSSP's
// active set shrinks and moves, so the checkpointed frontiers must be
// restored and merged exactly for the continuation to reach the Dijkstra
// fixed point.
func TestHeteroSSSPDegradesAfterDrop(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	want := seqref.ClassicSSSP(g, 0)

	// A degraded run counts supersteps like a clean or a healed one: the
	// convergence-detection superstep included.
	steps := func(plan string, rejoin bool) int64 {
		opt0, opt1 := chaosOpts(core.DefaultMaxIterations, 1, plan, t)
		opt0.Rejoin = rejoin
		res, err := core.RunF32Hetero(apps.NewSSSP(0), g, assign, opt0, opt1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Iterations
	}
	clean := steps("", false)
	if healed := steps("rank1:flaky@2x2", true); healed != clean {
		t.Fatalf("healed run Iterations = %d, clean run %d", healed, clean)
	}

	for _, k := range []int64{1, 2} {
		t.Run(fmt.Sprintf("drop@%d", k), func(t *testing.T) {
			app := apps.NewSSSP(0)
			opt0, opt1 := chaosOpts(core.DefaultMaxIterations, 1, fmt.Sprintf("rank1:drop@%d", k), t)
			res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations != clean {
				t.Errorf("Iterations = %d, want the clean run's %d", res.Iterations, clean)
			}
			if !res.Degraded || res.FailedRank != 1 {
				t.Fatalf("Degraded=%v FailedRank=%d, want degraded rank 1", res.Degraded, res.FailedRank)
			}
			if !res.Converged {
				t.Fatal("degraded SSSP did not converge")
			}
			// Min-reductions are order-insensitive: the result is exact.
			for v := range want {
				if app.Dist[v] != want[v] {
					t.Fatalf("dist[%d] = %v, want %v", v, app.Dist[v], want[v])
				}
			}
		})
	}
}

// TestHeteroPanicDegrades injects panics into each compute phase of either
// rank; the run must recover the panic, identify the panicking rank, and
// degrade to a correct single-device finish.
func TestHeteroPanicDegrades(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 6
	want := seqref.ClassicPageRank(g, 0.85, iters)

	for _, tc := range []struct {
		plan string
		rank int
	}{
		{"rank0:panic@1:generate", 0},
		{"rank1:panic@2:process", 1},
		{"rank1:panic@3:update", 1},
	} {
		t.Run(tc.plan, func(t *testing.T) {
			app := apps.NewPageRank()
			opt0, opt1 := chaosOpts(iters, 1, tc.plan, t)
			res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded {
				t.Fatal("run did not degrade despite injected panic")
			}
			if res.FailedRank != tc.rank {
				t.Fatalf("FailedRank = %d, want %d", res.FailedRank, tc.rank)
			}
			if res.Iterations != iters {
				t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
			}
			for v := range want {
				diff := math.Abs(float64(app.Ranks[v] - want[v]))
				if diff > 2e-3*math.Max(1, float64(want[v])) {
					t.Fatalf("rank[%d] = %v, want %v", v, app.Ranks[v], want[v])
				}
			}
		})
	}
}

// TestHeteroDropWithoutCheckpointReturnsError: with no checkpointing the
// failure must surface as a typed error promptly — not a deadlock.
func TestHeteroDropWithoutCheckpointReturnsError(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(6, 0, "rank1:drop@1", t)
	_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	var dfe *comm.DeviceFailedError
	if !errors.As(err, &dfe) {
		t.Fatalf("got %v, want *comm.DeviceFailedError", err)
	}
	if dfe.Rank != 1 {
		t.Fatalf("blamed rank %d, want 1", dfe.Rank)
	}
}

// TestHeteroTransientLinkFaultRetried: a short fault burst is retried away
// and the run completes normally, un-degraded.
func TestHeteroTransientLinkFaultRetried(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 5
	want := seqref.ClassicPageRank(g, 0.85, iters)
	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:fail@1x3", t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("transient fault degraded the run")
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v", v, app.Ranks[v], want[v])
		}
	}
}

// TestGenericHeteroFaultReturnsError: a structured-message run without
// checkpointing cannot recover; an injected failure must surface as an error
// from both the erroring rank and the peer, without deadlock.
func TestGenericHeteroFaultReturnsError(t *testing.T) {
	g, err := gen.Community(gen.CommunityConfig{N: 400, Communities: 4, IntraDeg: 3, InterFrac: 0.03, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	assign := chaosAssign(t, g)
	plan, err := fault.Parse("rank1:drop@1")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewLabelPropagation()
	_, err = core.RunGenericHetero[apps.LPAMsg](app, g, assign,
		core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, MaxIterations: 6, Fault: inj},
		core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, MaxIterations: 6})
	var dfe *comm.DeviceFailedError
	if !errors.As(err, &dfe) {
		t.Fatalf("got %v, want *comm.DeviceFailedError", err)
	}
	if dfe.Rank != 1 {
		t.Fatalf("blamed rank %d, want 1", dfe.Rank)
	}
}

// lpaGraph is a small community graph for the label-propagation oracle runs.
func lpaGraph(t testing.TB) *graph.CSR {
	t.Helper()
	g, err := gen.Community(gen.CommunityConfig{N: 500, Communities: 5, IntraDeg: 3, InterFrac: 0.03, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lpaWant returns the sequential reference's labels after maxIters
// supersteps.
func lpaWant(t testing.TB, g *graph.CSR, maxIters int) []graph.VertexID {
	t.Helper()
	seq := apps.NewLabelPropagation()
	if _, _, err := seqref.RunGenericSeq[apps.LPAMsg](seq, g, maxIters); err != nil {
		t.Fatal(err)
	}
	return seq.Labels
}

// TestGenericHeteroDegradesAfterDrop: with checkpointing, a structured-message
// run degrades like a float32 one — rank 1 dies at superstep 3, rank 0
// restores the newest checkpoint, finishes alone, and the labels match the
// sequential reference exactly.
func TestGenericHeteroDegradesAfterDrop(t *testing.T) {
	g := lpaGraph(t)
	const iters = 8
	want := lpaWant(t, g, iters)
	app := apps.NewLabelPropagation()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:drop@3", t)
	res, err := core.RunGenericHetero[apps.LPAMsg](app, g, chaosAssign(t, g), opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FailedRank != 1 || res.FailedSuperstep != 3 {
		t.Fatalf("Degraded=%v FailedRank=%d FailedSuperstep=%d, want rank 1 degraded at superstep 3",
			res.Degraded, res.FailedRank, res.FailedSuperstep)
	}
	for v := range want {
		if app.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, seq %d", v, app.Labels[v], want[v])
		}
	}
}

// TestGenericHeteroCheckpointNeedsSnapshotter: Semi-Clustering does not
// snapshot its state, so asking its device group to checkpoint is a typed
// configuration error naming the missing interface, not a silently
// unprotected run.
func TestGenericHeteroCheckpointNeedsSnapshotter(t *testing.T) {
	g := lpaGraph(t)
	opt0, opt1 := chaosOpts(4, 1, "", t)
	_, err := core.RunGenericHetero[apps.SCMsg](apps.NewSemiClustering(3, 4, 0.2), g, chaosAssign(t, g), opt0, opt1)
	var ioe *core.InvalidOptionsError
	if !errors.As(err, &ioe) || !strings.Contains(ioe.Reason, "Snapshotter") {
		t.Fatalf("err = %v, want *core.InvalidOptionsError naming Snapshotter", err)
	}
}

// TestSingleDeviceInjectedPanicSurfaced: the injector's panic events fire in
// single-device runs too and are recovered into errors for every phase.
func TestSingleDeviceInjectedPanicSurfaced(t *testing.T) {
	g := chaosGraph(t)
	for _, plan := range []string{
		"rank0:panic@1:generate",
		"rank0:panic@1:process",
		"rank0:panic@1:update",
	} {
		t.Run(plan, func(t *testing.T) {
			p, err := fault.Parse(plan)
			if err != nil {
				t.Fatal(err)
			}
			inj, err := fault.NewInjector(p)
			if err != nil {
				t.Fatal(err)
			}
			app := apps.NewPageRank()
			_, err = core.RunF32(app, g, core.Options{
				Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true,
				MaxIterations: 3, Fault: inj,
			})
			if err == nil {
				t.Fatal("injected panic not surfaced as error")
			}
		})
	}
}

// TestOptionsValidationTyped: bad configuration and nil arguments are
// rejected with *core.InvalidOptionsError before any work starts.
func TestOptionsValidationTyped(t *testing.T) {
	g := graph.PaperExample()
	base := core.Options{Dev: machine.CPU()}

	cases := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"NegativeGenBatchSize", func(o *core.Options) { o.GenBatchSize = -4 }},
		{"NegativeK", func(o *core.Options) { o.K = -1 }},
		{"NegativeMaxIterations", func(o *core.Options) { o.MaxIterations = -1 }},
		{"NegativeCheckpointEvery", func(o *core.Options) { o.CheckpointEvery = -2 }},
		{"NegativeExchangeTimeout", func(o *core.Options) { o.ExchangeTimeout = -1 }},
		{"NegativeThreads", func(o *core.Options) { o.Threads = -8 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := base
			tc.mutate(&opt)
			_, err := core.RunF32(apps.NewBFS(0), g, opt)
			var ioe *core.InvalidOptionsError
			if !errors.As(err, &ioe) {
				t.Fatalf("got %v, want *core.InvalidOptionsError", err)
			}
		})
	}

	var ioe *core.InvalidOptionsError
	if _, err := core.RunF32(nil, g, base); !errors.As(err, &ioe) {
		t.Errorf("nil app: got %v, want *core.InvalidOptionsError", err)
	}
	if _, err := core.RunF32(apps.NewBFS(0), nil, base); !errors.As(err, &ioe) {
		t.Errorf("nil graph: got %v, want *core.InvalidOptionsError", err)
	}
	if _, err := core.RunGeneric[apps.LPAMsg](nil, g, base); !errors.As(err, &ioe) {
		t.Errorf("nil generic app: got %v, want *core.InvalidOptionsError", err)
	}

	// Checkpointing demands a Snapshotter: an app without one is rejected
	// up front rather than failing at the first boundary.
	g2 := chaosGraph(t)
	assign := chaosAssign(t, g2)
	opt0, opt1 := chaosOpts(4, 1, "", t)
	app := apps.NewTopoSort() // no Snapshot/Restore
	if _, err := core.RunF32Hetero(app, g2, assign, opt0, opt1); !errors.As(err, &ioe) {
		t.Errorf("non-Snapshotter app with CheckpointEvery: got %v, want *core.InvalidOptionsError", err)
	}
}

// TestHeteroCheckpointCleanRunUnchanged: checkpointing a healthy run must
// not perturb the result.
func TestHeteroCheckpointCleanRunUnchanged(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 5
	want := seqref.ClassicPageRank(g, 0.85, iters)
	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 2, "", t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.FailedRank != -1 {
		t.Fatalf("clean run reported failure: %+v", res)
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 1e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v", v, app.Ranks[v], want[v])
		}
	}
}
