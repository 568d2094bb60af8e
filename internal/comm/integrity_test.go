package comm

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"hetgraph/internal/fault"
	"hetgraph/internal/machine"
)

func mustInjector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	plan, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestExchangeCorruptDropAndRetransmit(t *testing.T) {
	// rank 1's transmission at round 0 arrives with flipped bytes; rank 0
	// must detect it by checksum, NACK, pull a clean retransmission from
	// the send buffer, and deliver the original payload intact.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(mustInjector(t, "rank1:corrupt@0"))
	n.SetRetryBase(10 * time.Microsecond)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0 []Msg[float32]
	var st0, st1 Stats
	var err0, err1 error
	go func() {
		defer wg.Done()
		recv0, _, st0, err0 = e0.ExchangeAll(nil, 0)
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
		t.Fatalf("rank 0 received %v, want the pristine payload", recv0)
	}
	if st0.CorruptDrops != 1 || st0.Retransmits != 1 {
		t.Errorf("rank 0 CorruptDrops=%d Retransmits=%d, want 1/1", st0.CorruptDrops, st0.Retransmits)
	}
	if st1.CorruptDrops != 0 || st1.Retransmits != 0 {
		t.Errorf("rank 1 CorruptDrops=%d Retransmits=%d, want 0/0", st1.CorruptDrops, st1.Retransmits)
	}
	ig := n.Integrity()
	if ig.CorruptDrops != 1 || ig.Retransmits != 1 || ig.DupDrops != 0 {
		t.Errorf("net integrity = %+v, want 1 corrupt drop and 1 retransmit", ig)
	}
	found := false
	for _, ls := range n.LinkStats() {
		if ls.From == 1 && ls.To == 0 {
			found = true
			if ls.Retransmits != 1 {
				t.Errorf("link 1→0 Retransmits = %d, want 1", ls.Retransmits)
			}
		}
	}
	if !found {
		t.Error("link 1→0 missing from LinkStats")
	}
}

func TestExchangePersistentCorruptKillsLink(t *testing.T) {
	// A link that corrupts every transmission attempt past the retry
	// budget is dead, and the corrupting sender is to blame.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(mustInjector(t, "rank1:corrupt@0x100"))
	n.SetRetryBase(10 * time.Microsecond)
	n.SetTimeout(time.Second)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var st0 Stats
	var err0 error
	go func() {
		defer wg.Done()
		_, _, st0, err0 = e0.ExchangeAll(nil, 0)
	}()
	go func() {
		defer wg.Done()
		// The victim's own round may succeed or fail fast once declared
		// dead; either way it must return.
		e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: 1, Val: 1}}), 1)
	}()
	wg.Wait()
	var dfe *DeviceFailedError
	if !errors.As(err0, &dfe) {
		t.Fatalf("err = %v, want *DeviceFailedError", err0)
	}
	if dfe.Rank != 1 || !dfe.Injected {
		t.Errorf("blamed rank %d (injected=%v), want rank 1 injected", dfe.Rank, dfe.Injected)
	}
	if st0.CorruptDrops <= int64(maxLinkRetries) {
		t.Errorf("CorruptDrops = %d, want > %d (budget exhausted)", st0.CorruptDrops, maxLinkRetries)
	}
}

func TestExchangeDupDrop(t *testing.T) {
	// rank 1's round-0 packet is delivered twice. Round 0 consumes the
	// first copy; the leftover must be dropped by the sequence fence in
	// round 1, not delivered.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(mustInjector(t, "rank1:dup@0"))
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recvs [2][]Msg[float32]
	var dups int64
	var errs [2]error
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			recv, _, st, err := e0.ExchangeAll(nil, 0)
			dups += st.DupDrops
			if err != nil {
				errs[0] = err
				return
			}
			recvs[i] = recv
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, _, _, err := e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: graph32(i), Val: float32(i)}}), 0); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("exchange errors: %v / %v", errs[0], errs[1])
	}
	if len(recvs[0]) != 1 || recvs[0][0].Dst != 0 || len(recvs[1]) != 1 || recvs[1][0].Dst != 1 {
		t.Fatalf("payloads duplicated or lost: round0=%v round1=%v", recvs[0], recvs[1])
	}
	if dups != 1 {
		t.Errorf("DupDrops = %d, want exactly 1", dups)
	}
	if ig := n.Integrity(); ig.DupDrops != 1 {
		t.Errorf("net DupDrops = %d, want 1", ig.DupDrops)
	}
}

func TestExchangeReorderDrop(t *testing.T) {
	// At round 1 rank 1's link swaps adjacent packets: the round-0 packet
	// is retransmitted ahead of the round-1 one. The receiver must drop
	// the stale packet and still deliver round 1's payload.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 2)
	n.SetInjector(mustInjector(t, "rank1:reorder@1"))
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recvs [2][]Msg[float32]
	var dups int64
	var errs [2]error
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			recv, _, st, err := e0.ExchangeAll(nil, 0)
			dups += st.DupDrops
			if err != nil {
				errs[0] = err
				return
			}
			recvs[i] = recv
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, _, _, err := e1.ExchangeAll(toPeer(e1, []Msg[float32]{{Dst: graph32(i), Val: float32(10 + i)}}), 0); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("exchange errors: %v / %v", errs[0], errs[1])
	}
	if len(recvs[1]) != 1 || recvs[1][0].Val != 11 {
		t.Fatalf("round 1 delivered %v, want the round-1 payload", recvs[1])
	}
	if dups != 1 {
		t.Errorf("DupDrops = %d, want exactly 1 (the swapped stale packet)", dups)
	}
}

func TestExchangePartitionSeversLinks(t *testing.T) {
	// Under partition@0:{0,1}|{2,3} every rank's exchange fails
	// immediately with a LinkSeveredError naming exactly the other side —
	// the per-link topology the supervisor fences from.
	n, _ := NewGroupNet[float32](machine.PCIe(), 4, 4)
	n.SetInjector(mustInjector(t, "partition@0:{0,1}|{2,3}"))
	n.SetTimeout(time.Second)
	otherSide := [][]int{{2, 3}, {2, 3}, {0, 1}, {0, 1}}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		ep, _ := n.Endpoint(r)
		wg.Add(1)
		go func(r int, ep *Endpoint[float32]) {
			defer wg.Done()
			_, _, _, errs[r] = ep.ExchangeAll(nil, 0)
		}(r, ep)
	}
	wg.Wait()
	for r := 0; r < 4; r++ {
		var lse *LinkSeveredError
		if !errors.As(errs[r], &lse) {
			t.Fatalf("rank %d: err = %v, want *LinkSeveredError", r, errs[r])
		}
		got := append([]int(nil), lse.Peers...)
		sort.Ints(got)
		if len(got) != 2 || got[0] != otherSide[r][0] || got[1] != otherSide[r][1] {
			t.Errorf("rank %d lost peers %v, want %v", r, got, otherSide[r])
		}
		if lse.Rank != r || lse.Superstep != 0 {
			t.Errorf("rank %d: verdict %+v", r, lse)
		}
	}
}

func TestExchangeHeaderOnlyIntegrity(t *testing.T) {
	// Nets over message types without a value codec ship header-only wire
	// images; corruption of those is still CRC-detected and repaired, and
	// the out-of-band payload survives.
	type pair struct{ A, B int64 }
	n, _ := NewGroupNet[pair](machine.PCIe(), 16, 2)
	n.SetInjector(mustInjector(t, "rank1:corrupt@0"))
	n.SetRetryBase(10 * time.Microsecond)
	e0, _ := n.Endpoint(0)
	e1, _ := n.Endpoint(1)
	var wg sync.WaitGroup
	wg.Add(2)
	var recv0 []Msg[pair]
	var st0 Stats
	var err0, err1 error
	go func() {
		defer wg.Done()
		recv0, _, st0, err0 = e0.ExchangeAll(nil, 0)
	}()
	go func() {
		defer wg.Done()
		_, _, _, err1 = e1.ExchangeAll(toPeer(e1, []Msg[pair]{{Dst: 2, Val: pair{A: 8, B: 9}}}), 1)
	}()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("exchange errors: %v / %v", err0, err1)
	}
	if len(recv0) != 1 || recv0[0].Val != (pair{A: 8, B: 9}) {
		t.Fatalf("rank 0 received %v, want the out-of-band payload", recv0)
	}
	if st0.CorruptDrops != 1 || st0.Retransmits != 1 {
		t.Errorf("CorruptDrops=%d Retransmits=%d, want 1/1", st0.CorruptDrops, st0.Retransmits)
	}
}

// graph32 keeps test literals tidy.
func graph32(i int) int32 { return int32(i) }
