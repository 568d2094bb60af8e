package core_test

import (
	"fmt"
	"math"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/partition"
	"hetgraph/internal/seqref"
)

// nrankAssign splits the graph evenly across n ranks.
func nrankAssign(t testing.TB, g *graph.CSR, n int) []int32 {
	t.Helper()
	weights := make([]int, n)
	for i := range weights {
		weights[i] = 1
	}
	assign, err := partition.MakeN(partition.MethodRoundRobin, g, weights)
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

// nrankOpts builds one Options per rank: rank 0 is the CPU with the locking
// scheme (and carries the injector/checkpoint config, which the supervisor
// propagates to the group), every other rank a MIC.
func nrankOpts(t testing.TB, n, iters, ckEvery int, plan string) []core.Options {
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
	opts := make([]core.Options, n)
	opts[0] = core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true,
		MaxIterations: iters, CheckpointEvery: ckEvery, Fault: inj}
	for r := 1; r < n; r++ {
		opts[r] = core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true,
			MaxIterations: iters}
	}
	return opts
}

// TestNRankPageRankMatchesClassic is the N-rank acceptance property for the
// fixed-length app: a fault-free group run at N ∈ {3, 4} must match the
// sequential power-iteration oracle within the usual PageRank tolerance.
func TestNRankPageRankMatchesClassic(t *testing.T) {
	g := chaosGraph(t)
	const iters = 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			assign := nrankAssign(t, g, n)
			app := apps.NewPageRank()
			res, err := core.RunF32Hetero(app, g, assign, nrankOpts(t, n, iters, 0, "")...)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Dev) != n {
				t.Fatalf("len(Dev) = %d, want %d", len(res.Dev), n)
			}
			if res.Iterations != iters {
				t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
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

// TestNRankSSSPMatchesDijkstra is the N-rank acceptance property for the
// moving-frontier apps: group runs at N ∈ {3, 4} must reach the exact
// Dijkstra fixed point (SSSP, float32 engine) and the exact sequential
// labels (label propagation, generic engine). The 3-rank SSSP case uses the
// single-Options Devices form to cover device-group expansion.
func TestNRankSSSPMatchesDijkstra(t *testing.T) {
	g := chaosGraph(t)
	want := seqref.ClassicSSSP(g, 0)
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			assign := nrankAssign(t, g, n)
			app := apps.NewSSSP(0)
			var (
				res core.HeteroResult
				err error
			)
			if n == 3 {
				group := make([]machine.DeviceSpec, n)
				group[0] = machine.CPU()
				for r := 1; r < n; r++ {
					group[r] = machine.MIC()
				}
				res, err = core.RunF32Hetero(app, g, assign, core.Options{
					Devices: group, Scheme: core.SchemePipelined, Vectorized: true,
					MaxIterations: core.DefaultMaxIterations,
				})
			} else {
				res, err = core.RunF32Hetero(app, g, assign, nrankOpts(t, n, core.DefaultMaxIterations, 0, "")...)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("SSSP group run did not converge")
			}
			for v := range want {
				if app.Dist[v] != want[v] {
					t.Fatalf("dist[%d] = %v, Dijkstra says %v", v, app.Dist[v], want[v])
				}
			}
		})
	}
	lg := lpaGraph(t)
	const lpaIters = 8
	labels := lpaWant(t, lg, lpaIters)
	for _, n := range []int{3, 4} {
		t.Run(fmt.Sprintf("lpa/ranks=%d", n), func(t *testing.T) {
			app := apps.NewLabelPropagation()
			if _, err := core.RunGenericHetero[apps.LPAMsg](app, lg, nrankAssign(t, lg, n), nrankOpts(t, n, lpaIters, 0, "")...); err != nil {
				t.Fatal(err)
			}
			for v := range labels {
				if app.Labels[v] != labels[v] {
					t.Fatalf("label[%d] = %d, seq %d", v, app.Labels[v], labels[v])
				}
			}
		})
	}
}

// TestQuorumBlameTwoSimultaneousFailures drops two of four ranks at the same
// exchange round: the blame quorum must convict exactly those two, the two
// survivors restore the checkpoint and finish as a group, and the result
// still matches the oracle. No heal is attempted (no recovery declared).
func TestQuorumBlameTwoSimultaneousFailures(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 4, 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	assign := nrankAssign(t, g, n)
	app := apps.NewPageRank()
	res, err := core.RunF32Hetero(app, g, assign, nrankOpts(t, n, iters, 1, "rank1:drop@3;rank3:drop@3")...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("run did not degrade after two rank failures")
	}
	if len(res.FailedRanks) != 2 || res.FailedRanks[0] != 1 || res.FailedRanks[1] != 3 {
		t.Fatalf("FailedRanks = %v, want [1 3]", res.FailedRanks)
	}
	if res.FailedRank != 1 {
		t.Errorf("FailedRank = %d, want 1 (lowest convicted)", res.FailedRank)
	}
	if res.FailedSuperstep != 3 {
		t.Errorf("FailedSuperstep = %d, want 3", res.FailedSuperstep)
	}
	if res.Healed {
		t.Error("Healed = true with no declared recovery")
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app.Ranks[v], want[v], diff)
		}
	}
}

// TestFourRankDegradeRejoinChaos runs the full lifecycle at N=4: rank 2
// drops at superstep 3 and recovers two supersteps later, the three
// survivors continue as a group from the checkpoint, and with Rejoin the
// healed run finishes at full membership matching the oracle — with the
// degraded→rejoined event pair in order.
func TestFourRankDegradeRejoinChaos(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 4, 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	assign := nrankAssign(t, g, n)
	app := apps.NewPageRank()
	col := metrics.NewCollector()
	opts := nrankOpts(t, n, iters, 1, "rank2:flaky@3x2")
	opts[0].Rejoin = true
	for r := range opts {
		opts[r].Metrics = col
	}
	res, err := core.RunF32Hetero(app, g, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatal("4-rank run did not heal despite flaky fault and Rejoin")
	}
	if res.FailedRank != 2 || res.FailedSuperstep != 3 {
		t.Errorf("FailedRank=%d FailedSuperstep=%d, want rank 2 at superstep 3",
			res.FailedRank, res.FailedSuperstep)
	}
	if res.RejoinSuperstep != 5 {
		t.Errorf("RejoinSuperstep = %d, want 5", res.RejoinSuperstep)
	}
	if res.FailedRanks != nil {
		t.Errorf("FailedRanks = %v after heal, want nil", res.FailedRanks)
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d", res.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app.Ranks[v], want[v], diff)
		}
	}
	events := col.Events()
	di := eventIndex(events, metrics.EventDegraded)
	ri := eventIndex(events, metrics.EventRejoined)
	if di < 0 || ri < 0 || di > ri {
		t.Fatalf("lifecycle events out of order: degraded@%d rejoined@%d", di, ri)
	}
	// The healed tail must be 4-rank again: the restarted rank records
	// phase samples at supersteps >= the rejoin point.
	tail := false
	for _, s := range col.Phases() {
		if s.Rank == 2 && s.Superstep >= res.RejoinSuperstep {
			tail = true
			break
		}
	}
	if !tail {
		t.Error("no rank-2 phase samples after the rejoin superstep: tail was not 4-rank")
	}
}

// TestCommSecondsCountsDegradedExchanges: CommSeconds is the interconnect
// time of the supersteps the run kept, taken from each stretch's lowest live
// rank — at full membership and below it alike, and whichever rank failed.
// The expected value is rebuilt from the exchange phase samples: for every
// superstep, the lead's last sample (a superstep recomputed after a restore
// is recorded again). A fault-free run keeps reporting exactly rank 0's
// exchange total.
func TestCommSecondsCountsDegradedExchanges(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 4, 10
	assign := nrankAssign(t, g, n)

	clean, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, nrankOpts(t, n, iters, 1, "")...)
	if err != nil {
		t.Fatal(err)
	}
	if clean.CommSeconds != clean.Dev[0].Phases.Exchange {
		t.Fatalf("fault-free CommSeconds = %v, want rank 0's exchange total %v", clean.CommSeconds, clean.Dev[0].Phases.Exchange)
	}

	for _, failed := range []int{2, 0} {
		t.Run(fmt.Sprintf("rank%d", failed), func(t *testing.T) {
			col := metrics.NewCollector()
			opts := nrankOpts(t, n, iters, 1, fmt.Sprintf("rank%d:drop@3", failed))
			for r := range opts {
				opts[r].Metrics = col
			}
			res, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.FailedRank != failed {
				t.Fatalf("Degraded=%v FailedRank=%d, want a degraded run after rank %d failed", res.Degraded, res.FailedRank, failed)
			}
			last := map[[2]int64]float64{}
			for _, s := range col.Phases() {
				if s.Phase == metrics.PhaseExchange {
					last[[2]int64{int64(s.Rank), s.Superstep}] = s.SimSeconds
				}
			}
			survivorLead := 0
			if failed == 0 {
				survivorLead = 1
			}
			var want float64
			for s := int64(0); s < iters; s++ {
				lead := 0
				if s >= res.ResumedSuperstep {
					lead = survivorLead
				}
				sec, ok := last[[2]int64{int64(lead), s}]
				if !ok {
					t.Fatalf("no exchange sample for lead rank %d at superstep %d", lead, s)
				}
				want += sec
			}
			if math.Abs(res.CommSeconds-want) > 1e-12 {
				t.Fatalf("CommSeconds = %v, want %v from the kept supersteps' lead exchanges (Recovery exchange %v)", res.CommSeconds, want, res.Recovery.Phases.Exchange)
			}
			if got := res.ExecSeconds + res.CommSeconds; got != res.SimSeconds {
				t.Fatalf("SimSeconds = %v, want Exec+Comm = %v", res.SimSeconds, got)
			}
		})
	}
}
