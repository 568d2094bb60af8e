package core_test

import (
	"errors"
	"math"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/comm"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/metrics"
	"hetgraph/internal/seqref"
)

// TestPartitionFenceHeal4Rank is the split-brain acceptance property: a
// 4-rank run partitioned into {0,1}|{2,3} at superstep 3 must fence the
// minority side ({2,3} — the tie breaks toward the side holding rank 0),
// degrade-and-continue on the quorum side, re-admit the fenced ranks at the
// heal@6 boundary through the epoch-fenced rejoin handshake, and finish at
// full membership matching the fault-free oracle.
func TestPartitionFenceHeal4Rank(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 4, 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	assign := nrankAssign(t, g, n)
	app := apps.NewPageRank()
	col := metrics.NewCollector()
	opts := nrankOpts(t, n, iters, 1, "partition@3:{0,1}|{2,3};heal@6")
	opts[0].Rejoin = true
	for r := range opts {
		opts[r].Metrics = col
	}
	res, err := core.RunF32Hetero(app, g, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partitioned {
		t.Fatal("Partitioned = false: the supervisor did not detect the split")
	}
	if res.PartitionSuperstep != 3 {
		t.Errorf("PartitionSuperstep = %d, want 3", res.PartitionSuperstep)
	}
	if len(res.PartitionMajority) != 2 || res.PartitionMajority[0] != 0 || res.PartitionMajority[1] != 1 {
		t.Errorf("PartitionMajority = %v, want [0 1] (tie breaks toward rank 0's side)", res.PartitionMajority)
	}
	if len(res.PartitionMinority) != 2 || res.PartitionMinority[0] != 2 || res.PartitionMinority[1] != 3 {
		t.Errorf("PartitionMinority = %v, want [2 3]", res.PartitionMinority)
	}
	if !res.Healed {
		t.Fatal("run did not heal at the heal@6 boundary")
	}
	if res.Degraded {
		t.Fatal("Degraded = true after a successful rejoin")
	}
	if res.RejoinSuperstep != 6 {
		t.Errorf("RejoinSuperstep = %d, want 6", res.RejoinSuperstep)
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
	pi := eventIndex(events, metrics.EventPartitioned)
	ri := eventIndex(events, metrics.EventRejoined)
	if pi < 0 || ri < 0 || pi > ri {
		t.Fatalf("lifecycle events out of order: partitioned@%d rejoined@%d", pi, ri)
	}
	if fi := eventIndex(events, metrics.EventDeviceFailed); fi >= 0 {
		t.Errorf("unexpected %s event for a fenced (not failed) minority: %+v", metrics.EventDeviceFailed, events[fi])
	}
	// The healed tail must be 4-rank again.
	tail := false
	for _, s := range col.Phases() {
		if s.Rank == 3 && s.Superstep >= res.RejoinSuperstep {
			tail = true
			break
		}
	}
	if !tail {
		t.Error("no rank-3 phase samples after the rejoin superstep: tail was not 4-rank")
	}
	if len(res.Links) == 0 {
		t.Error("Links empty on a 4-rank run")
	}
}

// TestPartitionWithoutHealEndsDegraded pins the permanent-partition contract:
// with no heal event the quorum side finishes degraded and still matches the
// oracle; the minority stays fenced.
func TestPartitionWithoutHealEndsDegraded(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 4, 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	assign := nrankAssign(t, g, n)
	app := apps.NewPageRank()
	opts := nrankOpts(t, n, iters, 1, "partition@3:{0,1}|{2,3}")
	opts[0].Rejoin = true
	res, err := core.RunF32Hetero(app, g, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partitioned || !res.Degraded || res.Healed {
		t.Fatalf("Partitioned=%v Degraded=%v Healed=%v, want partitioned, degraded, not healed",
			res.Partitioned, res.Degraded, res.Healed)
	}
	if len(res.FailedRanks) != 2 || res.FailedRanks[0] != 2 || res.FailedRanks[1] != 3 {
		t.Errorf("FailedRanks = %v, want the fenced minority [2 3]", res.FailedRanks)
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

// TestPartitionWithoutCheckpointReturnsTypedError: with no checkpointing
// there is no quorum-side continuation — the run aborts, but with a typed
// *comm.PartitionedError naming both sides instead of a deadlock or an
// anonymous failure.
func TestPartitionWithoutCheckpointReturnsTypedError(t *testing.T) {
	g := chaosGraph(t)
	const n = 4
	assign := nrankAssign(t, g, n)
	opts := nrankOpts(t, n, 10, 0, "partition@2:{0,3}|{1,2}")
	_, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opts...)
	var perr *comm.PartitionedError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *comm.PartitionedError", err)
	}
	if perr.Superstep != 2 {
		t.Errorf("Superstep = %d, want 2", perr.Superstep)
	}
	if len(perr.Majority) != 2 || perr.Majority[0] != 0 || perr.Majority[1] != 3 {
		t.Errorf("Majority = %v, want [0 3]", perr.Majority)
	}
	if len(perr.Minority) != 2 || perr.Minority[0] != 1 || perr.Minority[1] != 2 {
		t.Errorf("Minority = %v, want [1 2]", perr.Minority)
	}
}

// TestPartitionMinoritySideQuorumFencesRank0 covers the asymmetric split: in
// a 3-rank group cut {0}|{1,2}, the two-rank side holds quorum even though
// the lone side is rank 0 — size beats storage ownership when there is no
// tie.
func TestPartitionMinoritySideQuorumFencesRank0(t *testing.T) {
	g := chaosGraph(t)
	const n, iters = 3, 10
	want := seqref.ClassicPageRank(g, 0.85, iters)
	assign := nrankAssign(t, g, n)
	app := apps.NewPageRank()
	opts := nrankOpts(t, n, iters, 1, "partition@2:{0}|{1,2}")
	res, err := core.RunF32Hetero(app, g, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partitioned || !res.Degraded {
		t.Fatalf("Partitioned=%v Degraded=%v, want both", res.Partitioned, res.Degraded)
	}
	if len(res.PartitionMajority) != 2 || res.PartitionMajority[0] != 1 || res.PartitionMajority[1] != 2 {
		t.Errorf("PartitionMajority = %v, want [1 2]", res.PartitionMajority)
	}
	if len(res.FailedRanks) != 1 || res.FailedRanks[0] != 0 {
		t.Errorf("FailedRanks = %v, want the fenced [0]", res.FailedRanks)
	}
	for v := range want {
		diff := math.Abs(float64(app.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app.Ranks[v], want[v], diff)
		}
	}
}

// TestGenericHeteroPartitionReturnsTypedError: a structured-message run
// without checkpointing cannot recover, so a partition aborts — with the
// typed error, from every rank's perspective, without deadlock.
func TestGenericHeteroPartitionReturnsTypedError(t *testing.T) {
	g, err := gen.Community(gen.CommunityConfig{N: 400, Communities: 4, IntraDeg: 3, InterFrac: 0.03, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	assign := nrankAssign(t, g, 3)
	opts := nrankOpts(t, 3, 6, 0, "partition@1:{0,1}|{2}")
	gopts := make([]core.Options, 3)
	for r := range gopts {
		gopts[r] = core.Options{Dev: opts[r].Dev, Scheme: core.SchemeLocking, MaxIterations: 6, Fault: opts[r].Fault}
	}
	_, err = core.RunGenericHetero[apps.LPAMsg](apps.NewLabelPropagation(), g, assign, gopts...)
	var perr *comm.PartitionedError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *comm.PartitionedError", err)
	}
	if len(perr.Majority) != 2 || len(perr.Minority) != 1 || perr.Minority[0] != 2 {
		t.Errorf("sides %v|%v, want [0 1]|[2]", perr.Majority, perr.Minority)
	}
}

// TestCorruptRetransmitByteIdentical is the wire-integrity acceptance
// property: a run whose packets are corrupted in flight must detect every
// bad delivery by checksum, repair it by retransmission, and produce results
// byte-identical to the clean run — corruption is invisible to the
// application, visible only in the integrity counters.
func TestCorruptRetransmitByteIdentical(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8

	clean := apps.NewPageRank()
	co0, co1 := chaosOpts(iters, 0, "", t)
	if _, err := core.RunF32Hetero(clean, g, assign, co0, co1); err != nil {
		t.Fatal(err)
	}

	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 0, "rank1:corrupt@2;rank0:corrupt@5x2", t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.FailedRank != -1 {
		t.Fatalf("transient corruption degraded the run: %+v", res)
	}
	if res.Integrity.CorruptDrops == 0 {
		t.Error("Integrity.CorruptDrops = 0: the injected corruption was never detected")
	}
	if res.Integrity.Retransmits == 0 {
		t.Error("Integrity.Retransmits = 0: nothing was repaired")
	}
	retrans := int64(0)
	for _, l := range res.Links {
		retrans += l.Retransmits
	}
	if retrans != res.Integrity.Retransmits {
		t.Errorf("per-link retransmits sum to %d, Integrity says %d", retrans, res.Integrity.Retransmits)
	}
	for v := range clean.Ranks {
		if math.Float32bits(app.Ranks[v]) != math.Float32bits(clean.Ranks[v]) {
			t.Fatalf("rank[%d] = %v under corruption, clean run says %v: repaired run is not byte-identical",
				v, app.Ranks[v], clean.Ranks[v])
		}
	}
}

// TestDupReorderInvisibleToResult: duplicated and reordered deliveries are
// fenced by the packet sequence numbers; the run's output must be
// byte-identical to clean, with the drops counted.
func TestDupReorderInvisibleToResult(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8

	clean := apps.NewPageRank()
	co0, co1 := chaosOpts(iters, 0, "", t)
	if _, err := core.RunF32Hetero(clean, g, assign, co0, co1); err != nil {
		t.Fatal(err)
	}

	app := apps.NewPageRank()
	opt0, opt1 := chaosOpts(iters, 0, "rank1:dup@1;rank0:reorder@4", t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Integrity.DupDrops == 0 {
		t.Error("Integrity.DupDrops = 0: neither the duplicate nor the reordered stale packet was fenced")
	}
	for v := range clean.Ranks {
		if math.Float32bits(app.Ranks[v]) != math.Float32bits(clean.Ranks[v]) {
			t.Fatalf("rank[%d] = %v under dup/reorder, clean run says %v", v, app.Ranks[v], clean.Ranks[v])
		}
	}
}
