package core_test

import (
	"errors"
	"math"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/seqref"
)

// eventIndex returns the index of the first event of the given kind, or -1.
func eventIndex(events []metrics.Event, kind string) int {
	for i, e := range events {
		if e.Kind == kind {
			return i
		}
	}
	return -1
}

// TestHeteroPageRankHealsAfterFlaky is the healing acceptance property: a
// transient rank-1 failure at superstep 3 that clears two supersteps later
// must degrade, replay the restarted rank from the newest checkpoint, rejoin
// at superstep 5, finish in two-device lockstep, and match the fault-free
// sequential reference within the usual PageRank tolerance.
func TestHeteroPageRankHealsAfterFlaky(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 10
	want := seqref.ClassicPageRank(g, 0.85, iters)

	app := apps.NewPageRank()
	col := metrics.NewCollector()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:flaky@3x2", t)
	opt0.Rejoin = true
	opt0.Metrics = col
	opt1.Metrics = col
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatal("run did not heal despite flaky fault and Rejoin")
	}
	if res.Degraded {
		t.Fatal("Degraded = true after a successful rejoin with no later failure")
	}
	if res.FailedRank != 1 || res.FailedSuperstep != 3 {
		t.Errorf("FailedRank=%d FailedSuperstep=%d, want rank 1 at superstep 3",
			res.FailedRank, res.FailedSuperstep)
	}
	// flaky@3x2 clears at superstep 3+2=5: the survivor covers supersteps
	// 3 and 4 alone, then both ranks run 5..9.
	if res.RejoinSuperstep != 5 {
		t.Errorf("RejoinSuperstep = %d, want 5", res.RejoinSuperstep)
	}
	if res.DegradedSupersteps != 2 {
		t.Errorf("DegradedSupersteps = %d, want 2", res.DegradedSupersteps)
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
	if di < 0 || ri < 0 {
		t.Fatalf("missing lifecycle events: degraded@%d rejoined@%d (events %v)", di, ri, events)
	}
	if di > ri {
		t.Errorf("EventDegraded recorded at %d after EventRejoined at %d", di, ri)
	}
	if fi := eventIndex(events, metrics.EventRejoinFailed); fi >= 0 {
		t.Errorf("unexpected %s event: %+v", metrics.EventRejoinFailed, events[fi])
	}

	// The healed tail must actually be two-device: rank 1 records phase
	// samples at supersteps >= the rejoin point.
	tail := false
	for _, s := range col.Phases() {
		if s.Rank == 1 && s.Superstep >= res.RejoinSuperstep {
			tail = true
			break
		}
	}
	if !tail {
		t.Error("no rank-1 phase samples after the rejoin superstep: tail was not two-device")
	}
}

// TestHeteroSSSPHealsAfterFlaky checks healing on the moving-frontier path:
// the restarted rank replays from a checkpoint whose frontiers must be split
// and re-admitted exactly for SSSP to reach the Dijkstra fixed point.
func TestHeteroSSSPHealsAfterFlaky(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	want := seqref.ClassicSSSP(g, 0)

	app := apps.NewSSSP(0)
	opt0, opt1 := chaosOpts(core.DefaultMaxIterations, 1, "rank1:flaky@2x2", t)
	opt0.Rejoin = true
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatal("SSSP run did not heal")
	}
	if res.Degraded {
		t.Fatal("Degraded = true after successful rejoin")
	}
	if res.RejoinSuperstep != 4 {
		t.Errorf("RejoinSuperstep = %d, want 4", res.RejoinSuperstep)
	}
	if !res.Converged {
		t.Fatal("healed SSSP did not converge")
	}
	// Min-reductions are order-insensitive: the result is exact.
	for v := range want {
		if app.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, app.Dist[v], want[v])
		}
	}
}

// TestGenericHeteroHealsAfterFlaky: a structured-message run heals through
// the same supervisor as a float32 one — rank 1 fails at superstep 3, rejoins
// at superstep 5, and the labels match the sequential reference exactly.
func TestGenericHeteroHealsAfterFlaky(t *testing.T) {
	g := lpaGraph(t)
	const iters = 8
	want := lpaWant(t, g, iters)
	app := apps.NewLabelPropagation()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:flaky@3x2", t)
	opt0.Rejoin = true
	res, err := core.RunGenericHetero[apps.LPAMsg](app, g, chaosAssign(t, g), opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed || res.Degraded || res.RejoinSuperstep != 5 {
		t.Fatalf("Healed=%v Degraded=%v RejoinSuperstep=%d, want healed at superstep 5",
			res.Healed, res.Degraded, res.RejoinSuperstep)
	}
	for v := range want {
		if app.Labels[v] != want[v] {
			t.Fatalf("label[%d] = %d, seq %d", v, app.Labels[v], want[v])
		}
	}
}

// TestHeteroFlakyWithoutRejoinStaysDegraded pins the compatibility contract:
// without Options.Rejoin the same flaky plan degrades permanently, exactly
// like a drop, and still produces a correct single-device result.
func TestHeteroFlakyWithoutRejoinStaysDegraded(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 10
	want := seqref.ClassicPageRank(g, 0.85, iters)

	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:flaky@3x2", t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Healed {
		t.Fatal("Healed = true without Rejoin enabled")
	}
	if !res.Degraded {
		t.Fatal("run did not degrade")
	}
	if res.DegradedSupersteps == 0 {
		t.Error("DegradedSupersteps = 0 on a permanently degraded run")
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

// TestHeteroHealThenPermanentFailure composes a transient failure that heals
// with a later permanent drop: the run must report both Healed (it did
// rejoin) and Degraded (it ended single-device), and still be correct.
func TestHeteroHealThenPermanentFailure(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 10
	want := seqref.ClassicPageRank(g, 0.85, iters)

	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:flaky@2x1;rank1:drop@6", t)
	opt0.Rejoin = true
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatal("run did not heal from the flaky failure")
	}
	if res.RejoinSuperstep != 3 {
		t.Errorf("RejoinSuperstep = %d, want 3", res.RejoinSuperstep)
	}
	if !res.Degraded {
		t.Fatal("run did not end degraded despite the permanent drop@6")
	}
	if res.FailedSuperstep != 6 {
		t.Errorf("FailedSuperstep = %d, want 6 (the last failure)", res.FailedSuperstep)
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

// TestHeteroRecoverEventHeals exercises the explicit recover grammar: a
// permanent drop paired with rank1:recover@5 heals at superstep 5.
func TestHeteroRecoverEventHeals(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 10
	want := seqref.ClassicPageRank(g, 0.85, iters)

	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 1, "rank1:drop@3;rank1:recover@5", t)
	opt0.Rejoin = true
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed || res.Degraded {
		t.Fatalf("Healed=%v Degraded=%v, want healed and not degraded", res.Healed, res.Degraded)
	}
	if res.RejoinSuperstep != 5 {
		t.Errorf("RejoinSuperstep = %d, want 5", res.RejoinSuperstep)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app.Ranks[v], want[v], diff)
		}
	}
}

// TestHeteroAbort requests a shutdown before the run starts: both ranks must
// stop at the superstep-0 boundary and surface *RunAbortedError with the
// abort event recorded.
func TestHeteroAbort(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)

	app := apps.NewPageRank()
	col := metrics.NewCollector()
	abort := make(chan struct{})
	close(abort)
	opt0, opt1 := chaosOpts(10, 1, "", t)
	opt0.Abort = abort
	opt0.Metrics = col
	_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	var aerr *core.RunAbortedError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *RunAbortedError", err)
	}
	if aerr.Superstep != 0 {
		t.Errorf("aborted at superstep %d, want 0", aerr.Superstep)
	}
	if eventIndex(col.Events(), metrics.EventRunAborted) < 0 {
		t.Errorf("no %s event recorded (events %v)", metrics.EventRunAborted, col.Events())
	}
}

// TestRejoinRequiresCheckpointing pins the validation contract: Rejoin
// without a checkpoint cadence or directory is an options error naming the
// field, for both single-device and heterogeneous entry points.
func TestRejoinRequiresCheckpointing(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)

	check := func(t *testing.T, err error) {
		t.Helper()
		var ierr *core.InvalidOptionsError
		if !errors.As(err, &ierr) {
			t.Fatalf("err = %v, want *InvalidOptionsError", err)
		}
		if ierr.Field != "Rejoin" {
			t.Fatalf("Field = %q, want \"Rejoin\"", ierr.Field)
		}
	}

	t.Run("single", func(t *testing.T) {
		opt := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, MaxIterations: 4, Rejoin: true}
		_, err := core.RunF32(apps.NewPageRank(), g, opt)
		check(t, err)
	})
	t.Run("hetero", func(t *testing.T) {
		opt0, opt1 := chaosOpts(4, 0, "", t)
		opt1.Rejoin = true // merged across ranks: either side setting it counts
		_, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1)
		check(t, err)
	})
	t.Run("hetero-with-checkpointing-ok", func(t *testing.T) {
		opt0, opt1 := chaosOpts(4, 2, "", t)
		opt0.Rejoin = true
		res, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Healed || res.Degraded {
			t.Fatalf("fault-free run reported Healed=%v Degraded=%v", res.Healed, res.Degraded)
		}
	})
}
