package comm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
)

// toPeer addresses msgs to the other rank of a two-rank group.
func toPeer[T any](e *Endpoint[T], msgs []Msg[T]) [][]Msg[T] {
	out := make([][]Msg[T], 2)
	out[1-e.Rank()] = msgs
	return out
}

func TestNetValidation(t *testing.T) {
	if _, err := NewGroupNet[float32](machine.PCIe(), 0, 2); err == nil {
		t.Error("accepted zero msgBytes")
	}
	n, err := NewGroupNet[float32](machine.PCIe(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint(2); err == nil {
		t.Error("accepted rank 2")
	}
	e0, err := n.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Rank() != 0 {
		t.Error("rank wrong")
	}
}

func TestExchangeBothDirections(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0, recv1 []Msg[float32]
	var act0, act1 int64
	var st0, st1 Stats
	var err0, err1 error
	go func() {
		defer wg.Done()
		recv0, act0, st0, err0 = e0.ExchangeAll(toPeer(e0, []Msg[float32]{{Dst: 1, Val: 10}, {Dst: 2, Val: 20}}), 7)
	}()
	go func() {
		defer wg.Done()
		recv1, act1, st1, err1 = e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: 9, Val: 90}}), 3)
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("exchange errors: %v, %v", err0, err1)
	}
	if len(recv0) != 1 || recv0[0].Dst != 9 || recv0[0].Val != 90 {
		t.Errorf("rank 0 received %v", recv0)
	}
	if len(recv1) != 2 || recv1[0].Val != 10 {
		t.Errorf("rank 1 received %v", recv1)
	}
	if act0 != 3 || act1 != 7 {
		t.Errorf("active counts: %d %d", act0, act1)
	}
	if st0.MsgsSent != 2 || st0.MsgsRecv != 1 || st0.BytesSent != 16 || st0.BytesRecv != 8 {
		t.Errorf("rank 0 stats %+v", st0)
	}
	// Full-duplex: both ranks see the same round time (slower direction).
	if st0.SimSeconds != st1.SimSeconds {
		t.Errorf("asymmetric sim time: %v vs %v", st0.SimSeconds, st1.SimSeconds)
	}
	if st0.SimSeconds <= 0 {
		t.Error("non-positive sim time")
	}
}

func TestExchangeEmptyPayloadsNoDeadlock(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	for r, e := range []*Endpoint[float32]{e0, e1} {
		go func(r int, e *Endpoint[float32]) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				recv, _, st, err := e.ExchangeAll(nil, 0)
				if err != nil {
					t.Errorf("zero-message round %d: %v", i, err)
					return
				}
				if len(recv) != 0 {
					t.Errorf("unexpected messages")
					return
				}
				if st.SimSeconds < machine.PCIe().LatencyUS*1e-6 {
					t.Errorf("round cheaper than latency")
					return
				}
			}
		}(r, e)
	}
	wg.Wait()
}

func TestExchangeTimeGrowsWithBytes(t *testing.T) {
	link := machine.PCIe()
	n, _ := NewGroupNet[float32](link, 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	run := func(k int) float64 {
		msgs := make([]Msg[float32], k)
		var st Stats
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _, _, st, _ = e0.ExchangeAll(toPeer(e0, msgs), 0) }()
		go func() { defer wg.Done(); _, _, _, _ = e1.ExchangeAll(nil, 0) }()
		wg.Wait()
		return st.SimSeconds
	}
	small, big := run(10), run(1_000_000)
	if big <= small {
		t.Errorf("1M messages (%v s) not slower than 10 (%v s)", big, small)
	}
}

func TestCombinerCombines(t *testing.T) {
	min := func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}
	c := NewCombiner(8, min)
	c.Add(3, 5)
	c.Add(3, 2)
	c.Add(3, 9)
	c.Add(1, 7)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	out := c.Drain(nil)
	if len(out) != 2 {
		t.Fatalf("Drain len %d", len(out))
	}
	// First-touch order: 3 then 1.
	if out[0].Dst != 3 || out[0].Val != 2 {
		t.Errorf("combined[0] = %+v, want {3 2}", out[0])
	}
	if out[1].Dst != 1 || out[1].Val != 7 {
		t.Errorf("combined[1] = %+v", out[1])
	}
	// Drain resets.
	if c.Len() != 0 {
		t.Error("Drain did not reset")
	}
	c.Add(3, 100)
	out = c.Drain(nil)
	if out[0].Val != 100 {
		t.Errorf("stale value after reset: %v", out[0].Val)
	}
}

func TestCombinerMerge(t *testing.T) {
	sum := func(a, b float32) float32 { return a + b }
	a := NewCombiner(4, sum)
	b := NewCombiner(4, sum)
	a.Add(0, 1)
	a.Add(2, 5)
	b.Add(2, 7)
	b.Add(3, 9)
	a.Merge(b)
	got := map[int32]float32{}
	for _, m := range a.Drain(nil) {
		got[m.Dst] = m.Val
	}
	if got[0] != 1 || got[2] != 12 || got[3] != 9 {
		t.Errorf("merged = %v", got)
	}
}

func TestExchangeCombinedFlow(t *testing.T) {
	// Remote messages for the same destination combine before the wire:
	// the peer receives one message per destination.
	min := func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}
	c := NewCombiner(16, min)
	for i := 0; i < 100; i++ {
		c.Add(5, float32(100-i))
	}
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv []Msg[float32]
	go func() { defer wg.Done(); _, _, _, _ = e0.ExchangeAll(toPeer(e0, c.Drain(nil)), 0) }()
	go func() { defer wg.Done(); recv, _, _, _ = e1.ExchangeAll(nil, 0) }()
	wg.Wait()
	if len(recv) != 1 || recv[0].Dst != 5 || recv[0].Val != 1 {
		t.Errorf("combined exchange delivered %v", recv)
	}
}

// property: for a commutative, associative reduction, the combiner's result
// per destination is order-independent.
func TestQuickCombinerOrderIndependent(t *testing.T) {
	min := func(a, b float32) float32 {
		if a < b {
			return a
		}
		return b
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c1 := NewCombiner(16, min)
		c2 := NewCombiner(16, min)
		for _, r := range raw {
			c1.Add(int32(r%16), float32(r/16))
		}
		for i := len(raw) - 1; i >= 0; i-- {
			c2.Add(int32(raw[i]%16), float32(raw[i]/16))
		}
		m1 := map[int32]float32{}
		for _, m := range c1.Drain(nil) {
			m1[m.Dst] = m.Val
		}
		m2 := map[int32]float32{}
		for _, m := range c2.Drain(nil) {
			m2[m.Dst] = m.Val
		}
		if len(m1) != len(m2) {
			return false
		}
		for k, v := range m1 {
			if m2[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestExchangeManyRounds(t *testing.T) {
	// Sustained ping-pong: per-round payloads must never cross rounds.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan string, 2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			recv, _, _, err := e0.ExchangeAll(toPeer(e0, []Msg[float32]{{Dst: 0, Val: float32(i)}}), int64(i))
			if err != nil || len(recv) != 1 || recv[0].Val != float32(-i) {
				errs <- "rank 0 round payload mismatch"
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			recv, active, _, err := e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: 1, Val: float32(-i)}}), 0)
			if err != nil || len(recv) != 1 || recv[0].Val != float32(i) || active != int64(i) {
				errs <- "rank 1 round payload mismatch"
				return
			}
		}
	}()
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
}

// --- fault tolerance ---

func TestExchangeTimeoutReturnsDeviceFailed(t *testing.T) {
	// Regression: a rank whose peer never shows up must get a typed
	// DeviceFailedError within the deadline instead of hanging forever.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetTimeout(30 * time.Millisecond)
	e0, _ := n.Endpoint(0)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := e0.ExchangeAll(toPeer(e0, []Msg[float32]{{Dst: 1, Val: 1}}), 1)
		done <- err
	}()
	select {
	case err := <-done:
		var dfe *DeviceFailedError
		if !errors.As(err, &dfe) {
			t.Fatalf("want DeviceFailedError, got %v", err)
		}
		if dfe.Rank != 1 {
			t.Errorf("blamed rank %d, want peer rank 1", dfe.Rank)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("exchange hung past its deadline")
	}
	// Once declared dead, the next round fails fast from either side.
	start := time.Now()
	_, _, _, err := e0.ExchangeAll(nil, 0)
	if err == nil {
		t.Fatal("second exchange succeeded against a dead peer")
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Errorf("dead-peer exchange waited %v; want fast failure", time.Since(start))
	}
	e1, _ := n.Endpoint(1)
	if _, _, _, err := e1.ExchangeAll(nil, 0); err == nil {
		t.Error("dead rank's own exchange succeeded")
	}
}

func TestExchangeAsymmetricPayloads(t *testing.T) {
	// One side floods, the other sends nothing; both directions complete
	// and the stats reflect each side's own view.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	big := make([]Msg[float32], 10_000)
	for i := range big {
		big[i] = Msg[float32]{Dst: graph.VertexID(i), Val: float32(i)}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	var st0, st1 Stats
	var recv1 []Msg[float32]
	go func() { defer wg.Done(); _, _, st0, _ = e0.ExchangeAll(toPeer(e0, big), 5) }()
	go func() { defer wg.Done(); recv1, _, st1, _ = e1.ExchangeAll(nil, 0) }()
	wg.Wait()
	if len(recv1) != len(big) || recv1[9999].Val != 9999 {
		t.Fatalf("rank 1 received %d messages", len(recv1))
	}
	if st0.MsgsSent != 10_000 || st0.MsgsRecv != 0 || st1.MsgsSent != 0 || st1.MsgsRecv != 10_000 {
		t.Errorf("asymmetric stats wrong: %+v / %+v", st0, st1)
	}
	if st0.SimSeconds != st1.SimSeconds {
		t.Errorf("full-duplex round time differs: %v vs %v", st0.SimSeconds, st1.SimSeconds)
	}
}

func TestExchangeInjectedDrop(t *testing.T) {
	plan, err := fault.Parse("rank1:drop@2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(inj)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	errs := [2]error{}
	steps := [2]int{}
	run := func(r int, e *Endpoint[float32]) {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, _, _, err := e.ExchangeAll(nil, 0); err != nil {
				errs[r] = err
				return
			}
			steps[r]++
		}
	}
	go run(0, e0)
	go run(1, e1)
	wg.Wait()
	var d0, d1 *DeviceFailedError
	if !errors.As(errs[0], &d0) || !errors.As(errs[1], &d1) {
		t.Fatalf("want DeviceFailedError on both ranks, got %v / %v", errs[0], errs[1])
	}
	if d0.Rank != 1 || d1.Rank != 1 {
		t.Errorf("both ranks must blame rank 1, got %d / %d", d0.Rank, d1.Rank)
	}
	if !d1.Injected {
		t.Error("victim's error not marked injected")
	}
	if steps[0] != 2 || steps[1] != 2 {
		t.Errorf("completed rounds %v, want 2 on each rank before the drop at step 2", steps)
	}
}

func TestExchangeTransientLinkFaultRetries(t *testing.T) {
	plan, err := fault.Parse("rank0:fail@1x3")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(inj)
	n.SetRetryBase(10 * time.Microsecond)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var st0 Stats
	var err0 error
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			var st Stats
			_, _, st, err0 = e0.ExchangeAll(nil, 0)
			st0.Retries += st.Retries
			if err0 != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, _, _, err := e1.ExchangeAll(nil, 0); err != nil {
				return
			}
		}
	}()
	wg.Wait()
	if err0 != nil {
		t.Fatalf("transient fault not retried away: %v", err0)
	}
	if st0.Retries != 3 {
		t.Errorf("retries = %d, want 3", st0.Retries)
	}
}

func TestExchangePersistentLinkFaultDeclaresPeerDead(t *testing.T) {
	plan, err := fault.Parse("rank0:fail@0x100")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(inj)
	n.SetRetryBase(10 * time.Microsecond)
	e0, _ := n.Endpoint(0)
	_, _, _, err = e0.ExchangeAll(nil, 0)
	var dfe *DeviceFailedError
	if !errors.As(err, &dfe) || dfe.Rank != 1 {
		t.Fatalf("persistent link fault: got %v, want DeviceFailedError blaming rank 1", err)
	}
}

func TestAbortWakesPeer(t *testing.T) {
	// A rank that fails outside the exchange (recovered panic) aborts; its
	// peer, already waiting in Exchange with no deadline set, must wake.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := e0.ExchangeAll(nil, 0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	e1.Abort()
	select {
	case err := <-done:
		var dfe *DeviceFailedError
		if !errors.As(err, &dfe) || dfe.Rank != 1 {
			t.Fatalf("got %v, want DeviceFailedError blaming rank 1", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer did not wake after Abort")
	}
}

func TestExchangeInjectedDelayUnderDeadline(t *testing.T) {
	plan, err := fault.Parse("rank0:delay@0:2ms")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(inj)
	n.SetTimeout(500 * time.Millisecond)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var err0, err1 error
	go func() { defer wg.Done(); _, _, _, err0 = e0.ExchangeAll(nil, 0) }()
	go func() { defer wg.Done(); _, _, _, err1 = e1.ExchangeAll(nil, 0) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("delayed-but-alive round failed: %v / %v", err0, err1)
	}
}

func TestResumeHandshakeAgree(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ep, _ := n.Endpoint(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := ep.ResumeHandshake(7)
			if err != nil || got != 7 {
				t.Errorf("handshake: gen %d, err %v, want 7/nil", got, err)
			}
		}()
	}
	wg.Wait()
}

func TestResumeHandshakeMismatch(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	gens := [2]uint64{7, 8}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ep, _ := n.Endpoint(r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = ep.ResumeHandshake(gens[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d accepted mismatched resume generations", r)
		}
		if !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("rank %d: %v, want generation mismatch", r, err)
		}
	}
}

func TestResumeHandshakeDeadPeer(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetTimeout(50 * time.Millisecond)
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	ep1.Abort()
	_, err := ep0.ResumeHandshake(3)
	var dfe *DeviceFailedError
	if !errors.As(err, &dfe) || dfe.Rank != 1 {
		t.Fatalf("handshake with dead peer: %v, want *DeviceFailedError{Rank: 1}", err)
	}
}

func TestExchangeDropsStaleEpochPacket(t *testing.T) {
	// A packet stamped with an old epoch that lands after the membership
	// change (NewEpoch drains the buffers, but a rank dying mid-round can
	// park its last send later) must be count-and-dropped by the receiver
	// rather than delivered as superstep payload.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	old := n.Epoch()
	n.NewEpoch()
	n.chans[1][0] <- encodePacket(n, []Msg[float32]{{Dst: 9, Val: 99}}, 42, old, 0)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0 []Msg[float32]
	var act0 int64
	var st0, st1 Stats
	var err0, err1 error
	go func() {
		defer wg.Done()
		recv0, act0, st0, err0 = e0.ExchangeAll(nil, 0)
	}()
	go func() {
		defer wg.Done()
		_, _, st1, err1 = e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: 3, Val: 7}}), 1)
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("exchange errors: %v / %v", err0, err1)
	}
	if len(recv0) != 1 || recv0[0].Dst != 3 || recv0[0].Val != 7 {
		t.Fatalf("rank 0 received %v, want only the fresh-epoch payload", recv0)
	}
	if act0 != 1 {
		t.Errorf("activeRemote = %d leaked from the stale packet, want 1", act0)
	}
	if st0.StaleDrops != 1 {
		t.Errorf("rank 0 StaleDrops = %d, want 1", st0.StaleDrops)
	}
	if st1.StaleDrops != 0 {
		t.Errorf("rank 1 StaleDrops = %d, want 0", st1.StaleDrops)
	}
}

func TestExchangeDropsWrongSeqPacket(t *testing.T) {
	// Same fence, other dimension: a current-epoch packet with the wrong
	// superstep sequence number (e.g. a duplicate from a replayed rank) is
	// dropped, not delivered.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	// seq 5 is a "future" packet relative to the receiver's round 0: the
	// fence rejects it as stale, never delivers it.
	n.chans[1][0] <- encodePacket(n, []Msg[float32]{{Dst: 1, Val: 11}}, 0, n.Epoch(), 5)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0 []Msg[float32]
	var st0 Stats
	go func() { defer wg.Done(); recv0, _, st0, _ = e0.ExchangeAll(nil, 0) }()
	go func() { defer wg.Done(); _, _, _, _ = e1.ExchangeAll(nil, 0) }()
	wg.Wait()
	if len(recv0) != 0 {
		t.Fatalf("rank 0 received %v from a wrong-seq packet", recv0)
	}
	if st0.StaleDrops != 1 {
		t.Errorf("StaleDrops = %d, want 1", st0.StaleDrops)
	}
}

func TestRejoinHandshakeAgree(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	epoch := n.NewEpoch()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ep, _ := n.Endpoint(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ep.RejoinHandshake(epoch, 3, 7); err != nil {
				t.Errorf("rejoin handshake: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestRejoinHandshakeMismatch(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	epoch := n.NewEpoch()
	steps := [2]int64{7, 8}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		ep, _ := n.Endpoint(r)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = ep.RejoinHandshake(epoch, 3, steps[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d accepted mismatched rejoin supersteps", r)
		}
		if !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("rank %d: %v, want rejoin mismatch", r, err)
		}
	}
}

func TestRejoinHandshakeWrongEpoch(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.NewEpoch()
	ep, _ := n.Endpoint(0)
	if err := ep.RejoinHandshake(99, 0, 0); err == nil {
		t.Fatal("accepted a handshake for an epoch the net is not in")
	}
}

func TestRejoinHandshakeDeadPeer(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetTimeout(50 * time.Millisecond)
	epoch := n.NewEpoch()
	ep0, _ := n.Endpoint(0)
	ep1, _ := n.Endpoint(1)
	ep1.Abort()
	err := ep0.RejoinHandshake(epoch, 1, 2)
	var dfe *DeviceFailedError
	if !errors.As(err, &dfe) || dfe.Rank != 1 {
		t.Fatalf("rejoin with dead peer: %v, want *DeviceFailedError{Rank: 1}", err)
	}
}

func TestNewEpochDrainsParkedPayloads(t *testing.T) {
	// Two ranks of a four-rank group fail mid-round after the survivors'
	// sends to each other were already buffered. The degrade path bumps the
	// epoch and shrinks membership to the two survivors; their first
	// exchange of the new epoch must not deadlock on link buffers still
	// holding the failed round's payloads (the buffers are capacity-1, so
	// without the NewEpoch drain both survivors would block in their send
	// loop forever — the receive-side epoch fence never gets a chance).
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 4)
	n.chans[0][2] <- packet[float32]{msgs: []Msg[float32]{{Dst: 5, Val: 50}}, epoch: n.Epoch(), seq: 3}
	n.chans[2][0] <- packet[float32]{msgs: []Msg[float32]{{Dst: 6, Val: 60}}, epoch: n.Epoch(), seq: 3}
	n.NewEpoch()
	n.SetMembers([]int{0, 2})
	e0, _ := n.Endpoint(0)
	e2, _ := n.Endpoint(2)
	e0.SetStep(3)
	e2.SetStep(3)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0, recv2 []Msg[float32]
	var err0, err2 error
	go func() {
		defer wg.Done()
		out := make([][]Msg[float32], 4)
		out[2] = []Msg[float32]{{Dst: 1, Val: 1}}
		recv0, _, _, err0 = e0.ExchangeAll(out, 0)
	}()
	go func() {
		defer wg.Done()
		out := make([][]Msg[float32], 4)
		out[0] = []Msg[float32]{{Dst: 2, Val: 2}}
		recv2, _, _, err2 = e2.ExchangeAll(out, 0)
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("post-degrade ExchangeAll deadlocked on parked payloads")
	}
	if err0 != nil || err2 != nil {
		t.Fatalf("exchange errors: %v / %v", err0, err2)
	}
	if len(recv0) != 1 || recv0[0].Val != 2 {
		t.Errorf("rank 0 received %v, want the fresh payload only", recv0)
	}
	if len(recv2) != 1 || recv2[0].Val != 1 {
		t.Errorf("rank 2 received %v, want the fresh payload only", recv2)
	}
}

func TestNewEpochClearsDeadMarkers(t *testing.T) {
	// NewEpoch must make a previously-declared-dead net usable again: after
	// the bump, a normal exchange succeeds where it would have failed fast.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	e1.Abort()
	if _, _, _, err := e0.ExchangeAll(nil, 0); err == nil {
		t.Fatal("exchange against an aborted peer succeeded")
	}
	n.NewEpoch()
	f0, _ := n.Endpoint(0)
	f1, _ := n.Endpoint(1)
	f0.SetStep(1)
	f1.SetStep(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var err0, err1 error
	go func() { defer wg.Done(); _, _, _, err0 = f0.ExchangeAll(nil, 0) }()
	go func() { defer wg.Done(); _, _, _, err1 = f1.ExchangeAll(nil, 0) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("post-NewEpoch exchange failed: %v / %v", err0, err1)
	}
}

func TestSetStepAlignsRounds(t *testing.T) {
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	ep, _ := n.Endpoint(0)
	ep.SetStep(5)
	if ep.Step() != 5 {
		t.Fatalf("Step() = %d after SetStep(5)", ep.Step())
	}
}
