package core_test

import (
	"fmt"
	"math"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/seqref"
	"hetgraph/internal/trace"
)

// directionGraphs returns the oracle-equivalence graph set: a skewed
// power-law graph (the case direction switching exists for — the frontier
// blows up to a hub-dominated majority within a few hops) and a seeded
// uniform random graph (narrow frontiers, the push-biased case).
func directionGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	pl, err := gen.PowerLaw(gen.PowerLawConfig{N: 900, MeanDeg: 8, Alpha: 2.1, FrontBias: 0.7, Locality: 0.6, LocalWindow: 0.05, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := gen.Uniform(600, 2400, 72)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.CSR{"powerlaw": pl, "uniform": uni}
}

func directions() []core.Direction {
	return []core.Direction{core.DirectionPush, core.DirectionPull, core.DirectionAuto}
}

// TestDirectionOracleBFS: push, pull, and auto single-device BFS all produce
// exactly the classic level assignment, on both graph shapes. Pull recomputes
// each frontier parent's message from its state, so the reduced multiset —
// and therefore every level — is identical, not merely equivalent.
func TestDirectionOracleBFS(t *testing.T) {
	for name, g := range directionGraphs(t) {
		want := seqref.ClassicBFS(g, 0)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("%s/%s", name, dir), func(t *testing.T) {
				app := apps.NewBFS(0)
				res, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for v := range want {
					if app.Levels[v] != want[v] {
						t.Fatalf("level[%d] = %d, want %d", v, app.Levels[v], want[v])
					}
				}
				if dir == core.DirectionPull && res.Counters.PullSupersteps == 0 {
					t.Fatal("pull run recorded no pull supersteps")
				}
			})
		}
	}
}

// TestDirectionOracleSSSP: same property for the weighted min-fold app,
// where pull cannot early-exit and must fold every frontier parent.
func TestDirectionOracleSSSP(t *testing.T) {
	for name, g := range directionGraphs(t) {
		wg, err := gen.WithWeights(g, 0, 10, 73)
		if err != nil {
			t.Fatal(err)
		}
		want := seqref.ClassicSSSP(wg, 0)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("%s/%s", name, dir), func(t *testing.T) {
				app := apps.NewSSSP(0)
				res, err := core.RunF32(app, wg, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for v := range want {
					if app.Dist[v] != want[v] {
						t.Fatalf("dist[%d] = %v, want %v", v, app.Dist[v], want[v])
					}
				}
			})
		}
	}
}

// TestDirectionOracleHetero: per-rank autonomous direction decisions stay
// exact in a device group — cut-edge influence always travels as messages,
// so a pulling rank and a pushing rank interoperate within one superstep.
func TestDirectionOracleHetero(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	wg, err := gen.WithWeights(g, 0, 10, 74)
	if err != nil {
		t.Fatal(err)
	}
	wantBFS := seqref.ClassicBFS(wg, 0)
	wantSSSP := seqref.ClassicSSSP(wg, 0)
	for _, n := range []int{2, 3} {
		assign := nrankAssign(t, wg, n)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, dir), func(t *testing.T) {
				opts := nrankOpts(t, n, core.DefaultMaxIterations, 0, "")
				for r := range opts {
					opts[r].Direction = dir
				}
				bfs := apps.NewBFS(0)
				if _, err := core.RunF32Hetero(bfs, wg, assign, opts...); err != nil {
					t.Fatal(err)
				}
				for v := range wantBFS {
					if bfs.Levels[v] != wantBFS[v] {
						t.Fatalf("bfs level[%d] = %d, want %d", v, bfs.Levels[v], wantBFS[v])
					}
				}
				sssp := apps.NewSSSP(0)
				if _, err := core.RunF32Hetero(sssp, wg, assign, opts...); err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if sssp.Dist[v] != wantSSSP[v] {
						t.Fatalf("sssp dist[%d] = %v, want %v", v, sssp.Dist[v], wantSSSP[v])
					}
				}
			})
		}
	}
}

// TestDirectionDegradedRejoinOracle: an auto-direction group run through a
// flaky-rank fault plan (degrade, then rejoin two supersteps later) still
// lands exactly on the classic answer — the direction state is
// reconstructed from app state, not from history the failed rank lost. Every
// engine the regroups build shares the run's one transpose.
func TestDirectionDegradedRejoinOracle(t *testing.T) {
	g := chaosGraph(t)
	wantSSSP := seqref.ClassicSSSP(g, 0)
	wantBFS := seqref.ClassicBFS(g, 0)
	cases := []struct {
		name  string
		ranks int
		plan  string
		bfs   bool
	}{
		{"sssp/ranks=3", 3, "rank2:flaky@2x2", false},
		{"bfs/ranks=4", 4, "rank2:flaky@1x2", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assign := nrankAssign(t, g, tc.ranks)
			opts := nrankOpts(t, tc.ranks, core.DefaultMaxIterations, 1, tc.plan)
			opts[0].Rejoin = true
			for r := range opts {
				opts[r].Direction = core.DirectionAuto
			}
			bfs, sssp := apps.NewBFS(0), apps.NewSSSP(0)
			var app core.AppF32 = sssp
			if tc.bfs {
				app = bfs
			}
			res, err := core.RunF32Hetero(app, g, assign, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.DegradedSupersteps == 0 || !res.Healed {
				t.Fatalf("DegradedSupersteps=%d Healed=%v, want a degrade then a heal", res.DegradedSupersteps, res.Healed)
			}
			pulls := res.Recovery.Counters.PullSupersteps
			for _, d := range res.Dev {
				pulls += d.Counters.PullSupersteps
			}
			if pulls == 0 {
				t.Fatal("no rank ever pulled: the shared transpose was never read")
			}
			for v := range wantSSSP {
				if tc.bfs && bfs.Levels[v] != wantBFS[v] {
					t.Fatalf("level[%d] = %d, want %d", v, bfs.Levels[v], wantBFS[v])
				}
				if !tc.bfs && sssp.Dist[v] != wantSSSP[v] {
					t.Fatalf("dist[%d] = %v, want %v", v, sssp.Dist[v], wantSSSP[v])
				}
			}
		})
	}
}

// TestDirectionAutoSwitchesAndSaves: on a power-law BFS, auto must actually
// switch (trace shows both push and pull supersteps), label every phase
// sample with its superstep's direction, and generate no more messages than
// pure push — the point of the optimization.
func TestDirectionAutoSwitchesAndSaves(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	run := func(dir core.Direction, rec *trace.Recorder) machine.Counters {
		app := apps.NewBFS(0)
		res, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	rec := trace.NewRecorder()
	auto := run(core.DirectionAuto, rec)
	push := run(core.DirectionPush, nil)

	seen := map[string]bool{}
	for _, s := range rec.Samples() {
		if s.Direction == "" {
			t.Fatalf("sample %s/%d/%s has no direction label", s.Device, s.Iteration, s.Phase)
		}
		seen[s.Direction] = true
	}
	if !seen["push"] || !seen["pull"] {
		t.Fatalf("auto run used directions %v, want both push and pull", seen)
	}
	if auto.PullSupersteps == 0 {
		t.Fatal("auto run recorded no pull supersteps")
	}
	if push.PullSupersteps != 0 || push.PullEdgesScanned != 0 {
		t.Fatalf("push run recorded pull work: %d supersteps, %d edges", push.PullSupersteps, push.PullEdgesScanned)
	}
	if auto.Messages > push.Messages {
		t.Fatalf("auto generated %d messages, more than push's %d", auto.Messages, push.Messages)
	}
}

// TestDirectionPullRejectedForPushOnlyApps: explicit pull with an app that
// cannot pull (PageRank, and every generic-message app) is a typed options
// error; auto silently stays push.
func TestDirectionPullRejectedForPushOnlyApps(t *testing.T) {
	g := directionGraphs(t)["uniform"]
	_, err := core.RunF32(apps.NewPageRank(), g, core.Options{Dev: machine.CPU(), Direction: core.DirectionPull, MaxIterations: 2})
	var ioe *core.InvalidOptionsError
	if !asInvalidOptions(err, &ioe) || ioe.Field != "Direction" {
		t.Fatalf("pagerank pull: got %v, want *InvalidOptionsError on Direction", err)
	}
	// Auto with a push-only app runs, pushes, and labels nothing.
	res, err := core.RunF32(apps.NewPageRank(), g, core.Options{Dev: machine.CPU(), Direction: core.DirectionAuto, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PullSupersteps != 0 {
		t.Fatal("push-only app recorded pull supersteps under auto")
	}
	// Unknown direction values are rejected up front.
	if _, err := core.RunF32(apps.NewBFS(0), g, core.Options{Dev: machine.CPU(), Direction: core.Direction(9)}); err == nil {
		t.Fatal("accepted unknown Direction")
	}
}

func asInvalidOptions(err error, target **core.InvalidOptionsError) bool {
	ioe, ok := err.(*core.InvalidOptionsError)
	if ok {
		*target = ioe
	}
	return ok
}

// TestPageRankByteDeterminism: repeated PageRank runs — multi-threaded,
// locking and pipelined, single device and a 2-rank group — produce
// bit-identical ranks, because the engine folds its float32 sums in
// canonical sorted order (sorted CSB lanes, sorting remote combiner).
func TestPageRankByteDeterminism(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	const iters = 15
	bits := func(rs []float32) []uint32 {
		out := make([]uint32, len(rs))
		for i, r := range rs {
			out[i] = math.Float32bits(r)
		}
		return out
	}
	single := func(scheme core.Scheme) []uint32 {
		app := apps.NewPageRank()
		if _, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: scheme, Vectorized: true, MaxIterations: iters}); err != nil {
			t.Fatal(err)
		}
		return bits(app.Ranks)
	}
	hetero := func() []uint32 {
		assign := nrankAssign(t, g, 2)
		app := apps.NewPageRank()
		if _, err := core.RunF32Hetero(app, g, assign, nrankOpts(t, 2, iters, 0, "")...); err != nil {
			t.Fatal(err)
		}
		return bits(app.Ranks)
	}
	for name, run := range map[string]func() []uint32{
		"locking":   func() []uint32 { return single(core.SchemeLocking) },
		"pipelined": func() []uint32 { return single(core.SchemePipelined) },
		"hetero2":   hetero,
	} {
		t.Run(name, func(t *testing.T) {
			want := run()
			for trial := 0; trial < 3; trial++ {
				got := run()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("trial %d: rank[%d] bits %08x != %08x — float32 fold order leaked", trial, v, got[v], want[v])
					}
				}
			}
		})
	}
}
