// Package comm provides the cross-device message exchange of the
// heterogeneous runtime. The paper runs MPI in symmetric mode — CPU as rank
// 0, MIC as rank 1, connected by PCIe — and between the message-generation
// and message-processing steps each device combines its remote message
// buffer and ships the combined result to the other device as a single MPI
// message (§IV-A).
//
// Here the ranks are in-process engines; the transport is a matrix of
// buffered channels (real data movement, real synchronization), and the
// PCIe cost is computed from the actual bytes shipped using the machine
// package's link model.
//
// # Device groups
//
// A Net is built for an N-rank device group (NewGroupNet; the classic
// CPU+MIC pair is N = 2). Every ordered pair of ranks gets its own buffered
// channel, so an all-to-all round cannot deadlock: each rank deposits all
// its outgoing payloads before it starts receiving. Rank r's view of the
// group is an Endpoint; Endpoint.ExchangeAll ships one payload per live peer
// and collects one from each.
//
// The supervisor can shrink the group after a failure (SetMembers) and
// re-grow it on rejoin; epoch fencing (NewEpoch) stamps every packet so a
// payload left behind by a dead rank is dropped as stale instead of being
// delivered into the healed run. Per-link traffic is tallied in LinkStats.
package comm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
)

// Msg is one combined remote message <dst_id, value>.
type Msg[T any] struct {
	Dst graph.VertexID
	Val T
}

// packet is one exchange round's payload: the combined messages plus the
// sender's active-vertex count, which the BSP termination check needs. Every
// packet is stamped with the net's communication epoch and the sender's
// superstep sequence number, so a receiver can reject a payload left behind
// by a rank that died mid-round instead of consuming it as live data.
//
// wire is the checksummed wire image (see packet.go) the receive path
// verifies before trusting anything else. For float32 nets it carries the
// full payload and is authoritative — msgs is nil in flight and
// reconstructed from the wire on receive; for other message types it is a
// header-only image and msgs travels alongside it.
type packet[T any] struct {
	msgs   []Msg[T]
	active int64
	epoch  uint64
	seq    int64
	wire   []byte
}

// DeviceFailedError reports that a rank died, stalled past the exchange
// deadline, or lost its link permanently. Rank names the rank that failed
// (which may be the caller's own rank, when the failure was injected into it
// or a peer declared it dead).
type DeviceFailedError struct {
	// Rank is the rank that failed.
	Rank int
	// Superstep is the exchange round at which the failure was detected.
	Superstep int64
	// Injected is true when the failure came from the fault injector.
	Injected bool
	// Reason describes the failure.
	Reason string
}

func (e *DeviceFailedError) Error() string {
	return fmt.Sprintf("comm: device rank %d failed at superstep %d: %s", e.Rank, e.Superstep, e.Reason)
}

// LinkSeveredError reports that a rank found links to some of its peers cut
// at the start of an exchange round — the per-link view of a network
// partition (which links died, not just which rank). The supervisor
// aggregates these verdicts across ranks to reconstruct the cut and fence
// the minority side.
type LinkSeveredError struct {
	// Rank is the reporting rank.
	Rank int
	// Superstep is the exchange round at which the cut was detected.
	Superstep int64
	// Peers are the unreachable peer ranks, ascending.
	Peers []int
}

func (e *LinkSeveredError) Error() string {
	return fmt.Sprintf("comm: rank %d lost links to peers %v at superstep %d", e.Rank, e.Peers, e.Superstep)
}

// PartitionedError reports that the device group split into two sides that
// cannot reach each other. The quorum-holding majority side degrades and
// continues; the minority side is fenced and its ranks abort with this
// error. Ties are broken toward the side containing the lowest rank (rank
// 0 — the host, which owns the storage path).
type PartitionedError struct {
	// Superstep is the exchange round at which the split was detected.
	Superstep int64
	// Majority is the quorum side that continues, ascending.
	Majority []int
	// Minority is the fenced side, ascending.
	Minority []int
}

func (e *PartitionedError) Error() string {
	return fmt.Sprintf("comm: network partitioned at superstep %d: quorum side %v continues, minority side %v fenced",
		e.Superstep, e.Majority, e.Minority)
}

// Retry policy for transient link faults: capped exponential backoff. A
// fault that persists past maxLinkRetries attempts declares the link — and
// with it the peer — dead.
const (
	maxLinkRetries   = 6
	defaultRetryBase = 200 * time.Microsecond
	maxRetryBackoff  = 5 * time.Millisecond
)

// linkCounter tallies one directed link's lifetime traffic.
type linkCounter struct {
	msgs    atomic.Int64
	bytes   atomic.Int64
	retrans atomic.Int64
}

// LinkStat is one directed link's cumulative traffic across the run, as
// counted on the sender side.
type LinkStat struct {
	// From and To are the sender and receiver ranks.
	From, To int
	// Msgs and Bytes are the combined messages and wire bytes shipped.
	Msgs, Bytes int64
	// Retransmits counts packets re-pulled from this link's send buffer
	// after the receiver NACKed a corrupt delivery.
	Retransmits int64
}

// IntegrityStats aggregates the net's lifetime link-integrity counters
// across all ranks and links.
type IntegrityStats struct {
	// CorruptDrops counts received packets dropped for failing checksum or
	// decode validation.
	CorruptDrops int64
	// DupDrops counts received packets dropped for carrying an
	// already-delivered sequence number — duplicated or reordered
	// leftovers.
	DupDrops int64
	// StaleDrops counts received packets dropped by the epoch/sequence
	// fence as leftovers from before a membership change.
	StaleDrops int64
	// Retransmits counts packets re-pulled from a send buffer after a
	// corrupt delivery was NACKed.
	Retransmits int64
}

// integrityCounters is the atomic backing store of IntegrityStats.
type integrityCounters struct {
	corrupt atomic.Int64
	dup     atomic.Int64
	stale   atomic.Int64
	retrans atomic.Int64
}

// sentSlot is one directed link's send buffer: the pristine wire image of
// the most recent packet the sender deposited, kept for NACK retransmission.
// The sender overwrites it on every send; the receiver pulls a copy when a
// delivery fails its checksum.
type sentSlot[T any] struct {
	mu sync.Mutex
	// pkts is a depth-2 ring of the packets most recently stored on this
	// link, newest first. Depth 2 is sufficient because the exchange is
	// lockstep: a sender can run at most one round ahead of a receiver
	// that is still NACK-retrying the previous round, so the packet a
	// retransmission needs is always one of the last two stored.
	pkts [2]packet[T]
	ok   [2]bool
}

func (s *sentSlot[T]) store(p packet[T]) {
	s.mu.Lock()
	s.pkts[1], s.ok[1] = s.pkts[0], s.ok[0]
	s.pkts[0], s.ok[0] = p, true
	s.mu.Unlock()
}

// load returns the buffered packet with sequence number seq, if the ring
// still holds it.
func (s *sentSlot[T]) load(seq int64) (packet[T], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.pkts {
		if s.ok[i] && s.pkts[i].seq == seq {
			return s.pkts[i], true
		}
	}
	return packet[T]{}, false
}

func (s *sentSlot[T]) clear() {
	s.mu.Lock()
	s.pkts = [2]packet[T]{}
	s.ok = [2]bool{}
	s.mu.Unlock()
}

// Net is the N-rank interconnect of a device group.
type Net[T any] struct {
	link     machine.Link
	msgBytes int
	ranks    int
	// chans[from][to] carries from→to payloads. Depositing all sends
	// before receiving keeps a symmetric all-to-all round deadlock-free;
	// the capacity (4, see NewGroupNet) leaves headroom for injected
	// duplicate and reordered packets plus a leftover from the previous
	// round, so wire faults cannot wedge a sender either.
	chans [][]chan packet[T]
	// sent[from][to] is the per-link send buffer for NACK retransmission.
	sent [][]*sentSlot[T]

	// timeout bounds each ExchangeAll round (0 = wait forever, the classic
	// deadlock-prone MPI behavior).
	timeout time.Duration
	// inj, when non-nil, injects planned faults into exchanges.
	inj *fault.Injector
	// retryBase is the first backoff interval for transient link faults.
	retryBase time.Duration
	// dead[r] is closed once rank r is declared dead (by fault injection,
	// or by a peer giving up on it); pending and future exchanges then
	// fail fast instead of waiting out the full deadline again.
	dead     []chan struct{}
	deadOnce []sync.Once
	// resumeB[r] carries rank r's restored checkpoint generation during the
	// cold-start resume handshake. A board, not a channel: every live peer
	// reads it.
	resumeB []*board[uint64]
	// epoch is the current communication epoch, bumped by NewEpoch on every
	// membership change. ExchangeAll stamps outgoing packets with it and
	// rejects received packets from any other epoch (or the wrong
	// superstep) as stale.
	epoch atomic.Uint64
	// rejoinB[r] carries rank r's (epoch, generation, superstep) triple
	// during the mid-run rejoin handshake.
	rejoinB []*board[rejoinInfo]

	// memMu guards members, the ranks currently in lockstep. The
	// supervisor shrinks it on degradation and restores it on rejoin,
	// always between segments while no rank goroutine runs.
	memMu   sync.RWMutex
	members []int

	// linkStats[from][to] tallies per-directed-link traffic.
	linkStats [][]linkCounter
	// integ tallies lifetime link-integrity counters across all ranks.
	integ integrityCounters
}

// rejoinInfo is one rank's view of the rejoin agreement: the new epoch, the
// checkpoint generation the restart is based on, and the superstep lockstep
// resumes at.
type rejoinInfo struct {
	epoch uint64
	gen   uint64
	step  int64
}

// board is a one-shot, multi-reader handshake slot: the owner posts a value
// once per epoch and every peer reads it. NewEpoch replaces the boards.
type board[V any] struct {
	mu     sync.Mutex
	ready  chan struct{}
	val    V
	posted bool
}

func newBoard[V any]() *board[V] { return &board[V]{ready: make(chan struct{})} }

func (b *board[V]) post(v V) {
	b.mu.Lock()
	if !b.posted {
		b.val = v
		b.posted = true
		close(b.ready)
	}
	b.mu.Unlock()
}

func (b *board[V]) get() (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val, b.posted
}

// NewGroupNet creates the interconnect of an N-rank device group
// (ranks >= 2). msgBytes is the wire size of one message's value; 4 bytes of
// destination ID are added per message.
func NewGroupNet[T any](link machine.Link, msgBytes, ranks int) (*Net[T], error) {
	if msgBytes <= 0 {
		return nil, fmt.Errorf("comm: msgBytes %d <= 0", msgBytes)
	}
	if ranks < 2 {
		return nil, fmt.Errorf("comm: ranks %d < 2", ranks)
	}
	n := &Net[T]{link: link, msgBytes: msgBytes, ranks: ranks, retryBase: defaultRetryBase}
	n.chans = make([][]chan packet[T], ranks)
	n.sent = make([][]*sentSlot[T], ranks)
	n.linkStats = make([][]linkCounter, ranks)
	n.dead = make([]chan struct{}, ranks)
	n.deadOnce = make([]sync.Once, ranks)
	n.resumeB = make([]*board[uint64], ranks)
	n.rejoinB = make([]*board[rejoinInfo], ranks)
	n.members = make([]int, ranks)
	for r := 0; r < ranks; r++ {
		n.chans[r] = make([]chan packet[T], ranks)
		n.sent[r] = make([]*sentSlot[T], ranks)
		n.linkStats[r] = make([]linkCounter, ranks)
		for s := 0; s < ranks; s++ {
			if s != r {
				// Capacity 4: the normal in-flight packet, plus an injected
				// duplicate, plus an injected reordered (stale) packet, plus
				// one leftover from the previous round.
				n.chans[r][s] = make(chan packet[T], 4)
				n.sent[r][s] = &sentSlot[T]{}
			}
		}
		n.dead[r] = make(chan struct{})
		n.resumeB[r] = newBoard[uint64]()
		n.rejoinB[r] = newBoard[rejoinInfo]()
		n.members[r] = r
	}
	return n, nil
}

// Ranks returns the size of the device group.
func (n *Net[T]) Ranks() int { return n.ranks }

// Epoch returns the current communication epoch (0 until the first
// membership change).
func (n *Net[T]) Epoch() uint64 { return n.epoch.Load() }

// NewEpoch opens a new communication epoch for a membership change (degrade
// or rejoin): every rank's dead marker is cleared, the handshake boards are
// replaced, leftover payloads are drained from the data channels, and the
// epoch counter is bumped. The drain matters once a membership change
// leaves two or more live ranks: a payload a dead rank (or its stranded
// peer) parked in a link's buffer would otherwise keep that buffer full and
// block the new epoch's first send forever — the receive-loop epoch fence
// only rejects stale payloads that a receiver actually reaches. Packets
// that slip through anyway (a rank that died mid-round, a wrong-superstep
// replay) are still rejected by the receive fence and counted in
// Stats.StaleDrops. Must only be called while no rank goroutine is running:
// the supervisor owns the net between lockstep segments, which is also what
// makes the drain safe — any resident packet predates the new epoch.
func (n *Net[T]) NewEpoch() uint64 {
	for r := 0; r < n.ranks; r++ {
		n.dead[r] = make(chan struct{})
		n.deadOnce[r] = sync.Once{}
		n.resumeB[r] = newBoard[uint64]()
		n.rejoinB[r] = newBoard[rejoinInfo]()
		for s := 0; s < n.ranks; s++ {
			if c := n.chans[r][s]; c != nil {
			drain:
				for {
					select {
					case <-c:
					default:
						break drain
					}
				}
			}
			if slot := n.sent[r][s]; slot != nil {
				slot.clear()
			}
		}
	}
	return n.epoch.Add(1)
}

// SetMembers replaces the live membership — the sorted set of ranks expected
// in lockstep. Called by the supervisor between segments; defaults to all
// ranks.
func (n *Net[T]) SetMembers(members []int) {
	m := append([]int(nil), members...)
	sort.Ints(m)
	n.memMu.Lock()
	n.members = m
	n.memMu.Unlock()
}

// Members returns a copy of the live membership, sorted ascending.
func (n *Net[T]) Members() []int {
	n.memMu.RLock()
	defer n.memMu.RUnlock()
	return append([]int(nil), n.members...)
}

// LinkStats returns the cumulative per-directed-link traffic, counted on the
// sender side, sorted by (From, To). Links that never carried a message are
// omitted.
func (n *Net[T]) LinkStats() []LinkStat {
	var out []LinkStat
	for from := 0; from < n.ranks; from++ {
		for to := 0; to < n.ranks; to++ {
			if from == to {
				continue
			}
			c := &n.linkStats[from][to]
			if m, rt := c.msgs.Load(), c.retrans.Load(); m > 0 || rt > 0 {
				out = append(out, LinkStat{From: from, To: to, Msgs: m, Bytes: c.bytes.Load(), Retransmits: rt})
			}
		}
	}
	return out
}

// Integrity returns the net's lifetime link-integrity counters, aggregated
// across all ranks and links.
func (n *Net[T]) Integrity() IntegrityStats {
	return IntegrityStats{
		CorruptDrops: n.integ.corrupt.Load(),
		DupDrops:     n.integ.dup.Load(),
		StaleDrops:   n.integ.stale.Load(),
		Retransmits:  n.integ.retrans.Load(),
	}
}

// SetTimeout bounds every subsequent ExchangeAll round; 0 restores unbounded
// waiting. Call before the run starts.
func (n *Net[T]) SetTimeout(d time.Duration) { n.timeout = d }

// SetInjector attaches a fault injector (nil detaches it; the supervisor
// suspends injection during degraded segments so a planned fault cannot
// re-fire against an already-degraded group). Call while no rank goroutine
// is running.
func (n *Net[T]) SetInjector(inj *fault.Injector) { n.inj = inj }

// SetRetryBase overrides the first backoff interval for transient link
// faults (tests use tiny values to keep chaos runs fast).
func (n *Net[T]) SetRetryBase(d time.Duration) {
	if d > 0 {
		n.retryBase = d
	}
}

// markDead declares rank r dead, waking any exchange that waits on it.
func (n *Net[T]) markDead(r int) {
	n.deadOnce[r].Do(func() { close(n.dead[r]) })
}

// isDead reports whether rank r has been declared dead.
func (n *Net[T]) isDead(r int) bool {
	select {
	case <-n.dead[r]:
		return true
	default:
		return false
	}
}

// Endpoint returns rank r's view of the interconnect.
func (n *Net[T]) Endpoint(rank int) (*Endpoint[T], error) {
	if rank < 0 || rank >= n.ranks {
		if n.ranks == 2 {
			return nil, fmt.Errorf("comm: rank %d not in {0,1}", rank)
		}
		return nil, fmt.Errorf("comm: rank %d not in [0,%d)", rank, n.ranks)
	}
	return &Endpoint[T]{
		net: n, rank: rank,
		pending:    make([]packet[T], n.ranks),
		hasPending: make([]bool, n.ranks),
	}, nil
}

// Endpoint is one rank's exchange port. An endpoint is used by a single
// goroutine (its rank's engine loop); the Net underneath carries the
// cross-rank synchronization.
type Endpoint[T any] struct {
	net  *Net[T]
	rank int
	// step counts exchange rounds initiated by this endpoint; fault plans
	// index rounds with it.
	step int64
	// pending[peer] stashes a verified next-round packet: in lockstep the
	// sender may run one round ahead while this rank is still NACK-retrying
	// another link, and its early packet must be kept for the next round
	// rather than dropped. Endpoint methods run on a single goroutine, so
	// the stash needs no locking.
	pending    []packet[T]
	hasPending []bool
}

// Stats describes one exchange round from this endpoint's perspective.
type Stats struct {
	// MsgsSent and MsgsRecv are combined message counts, summed over peers.
	MsgsSent, MsgsRecv int64
	// BytesSent and BytesRecv are the wire sizes.
	BytesSent, BytesRecv int64
	// SimSeconds is the modeled PCIe time of the round: one latency plus
	// the slower direction's payload (the link is full duplex).
	SimSeconds float64
	// WallNS is the measured host wall-clock duration of the round in
	// nanoseconds, including the block waiting for peers (the BSP
	// lockstep wait) and any injected delay or retry backoff.
	WallNS int64
	// Retries is the number of transient link faults retried away this
	// round.
	Retries int64
	// StaleDrops is the number of received packets rejected this round for
	// carrying a previous epoch (or an impossible future sequence number) —
	// leftovers of a rank that died mid-round, fenced off after a rejoin
	// instead of delivered as live data.
	StaleDrops int64
	// CorruptDrops is the number of received packets dropped this round
	// for failing their CRC32C checksum or decode validation; each drop is
	// NACKed and repaired by retransmission.
	CorruptDrops int64
	// DupDrops is the number of received packets dropped this round for
	// carrying an already-delivered sequence number — duplicated or
	// reordered leftovers on the link.
	DupDrops int64
	// Retransmits is the number of packets re-pulled from a peer's send
	// buffer this round after NACKing a corrupt delivery.
	Retransmits int64
}

// livePeers returns the current members excluding this rank, ascending.
func (e *Endpoint[T]) livePeers() []int {
	n := e.net
	n.memMu.RLock()
	defer n.memMu.RUnlock()
	peers := make([]int, 0, len(n.members)-1)
	for _, m := range n.members {
		if m != e.rank {
			peers = append(peers, m)
		}
	}
	return peers
}

// NumLivePeers returns how many other ranks are currently in lockstep with
// this one. Zero means exchanges are no-ops (a lone survivor).
func (e *Endpoint[T]) NumLivePeers() int { return len(e.livePeers()) }

// Ranks is the size of the device group this endpoint belongs to.
func (e *Endpoint[T]) Ranks() int { return e.net.ranks }

// ExchangeAll ships one combined payload per live peer, with this rank's
// local active-vertex count, and receives each peer's payload and count. out
// is indexed by destination rank (entries for this rank or non-members are
// ignored; a short or nil slice sends empty payloads). Every live member
// must call ExchangeAll once per superstep; the call blocks until all peers'
// payloads arrive, which is the cross-device synchronization point of the
// BSP superstep. With zero live peers the round is a no-op that touches
// neither the injector nor the stats, so a lone survivor can keep its engine
// loop unchanged.
//
// The round is bounded by the net's timeout (SetTimeout): a peer that does
// not show up within the deadline is declared dead and a *DeviceFailedError
// naming it is returned, instead of the unbounded wait that would otherwise
// deadlock the run. Injected faults (SetInjector) can drop this rank, delay
// it, or fail the link transiently; transient faults are retried with
// capped exponential backoff and reported in Stats.Retries. A fault that
// outlives the retry budget is a permanent link loss: with one live peer the
// loss blames that peer (indistinguishable from its death); with several it
// blames this rank — one rank losing all its links at once is its own NIC,
// not N-1 simultaneous peer deaths.
func (e *Endpoint[T]) ExchangeAll(out [][]Msg[T], activeLocal int64) (recv []Msg[T], activeRemote int64, st Stats, err error) {
	n := e.net
	peers := e.livePeers()
	step := e.step
	e.step++
	wallStart := time.Now()

	if len(peers) == 0 {
		// A lone survivor: no cross-device traffic, no modeled link time.
		return nil, 0, st, nil
	}

	// A rank declared dead stays dead: fail fast on every later round.
	if n.isDead(e.rank) {
		return nil, 0, st, &DeviceFailedError{Rank: e.rank, Superstep: step, Reason: "rank previously declared dead"}
	}
	if n.inj != nil {
		// Partition check first: a severed link is a topology fault, not a
		// device fault. A real transport would discover the cut as per-link
		// exchange timeouts; the deterministic injector lets every affected
		// rank report its lost links in the same round, which is the
		// topology the supervisor aggregates to fence the minority side.
		var severed []int
		for _, peer := range peers {
			if n.inj.Severed(e.rank, peer, step) {
				severed = append(severed, peer)
			}
		}
		if len(severed) > 0 {
			return nil, 0, st, &LinkSeveredError{Rank: e.rank, Superstep: step, Peers: severed}
		}
		if n.inj.Drop(e.rank, step) {
			// The device dies here: it never sends this round, and the
			// closed dead channel lets the peers fail fast instead of
			// waiting out their deadlines.
			n.markDead(e.rank)
			return nil, 0, st, &DeviceFailedError{Rank: e.rank, Superstep: step, Injected: true, Reason: "injected exchange drop"}
		}
		if d := n.inj.Delay(e.rank, step); d > 0 {
			time.Sleep(d)
		}
		// Transient link faults: retry with capped exponential backoff. A
		// fault that outlives the retry budget is a permanent link loss —
		// with a single peer indistinguishable from that peer's death, and
		// treated as one; with several peers it is this rank's own link.
		backoff := n.retryBase
		for attempt := 0; n.inj.LinkFails(e.rank, step, attempt); attempt++ {
			if attempt >= maxLinkRetries {
				blamed := e.rank
				if len(peers) == 1 {
					blamed = peers[0]
				}
				n.markDead(blamed)
				return nil, 0, st, &DeviceFailedError{
					Rank: blamed, Superstep: step, Injected: true,
					Reason: fmt.Sprintf("link failed %d consecutive attempts", attempt+1),
				}
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxRetryBackoff {
				backoff = maxRetryBackoff
			}
			st.Retries++
		}
	}

	// One deadline covers the whole round (all sends + all receives).
	var timeoutC <-chan time.Time
	if n.timeout > 0 {
		timer := time.NewTimer(n.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	epoch := n.epoch.Load()
	perMsg := int64(n.msgBytes + 4)
	for _, peer := range peers {
		var msgs []Msg[T]
		if peer < len(out) {
			msgs = out[peer]
		}
		pkt := encodePacket(n, msgs, activeLocal, epoch, step)

		// The pristine packet goes into the link's send buffer before any
		// transmission, so a NACKing receiver can always pull a clean copy.
		slot := n.sent[e.rank][peer]
		prev, havePrev := slot.load(step - 1)
		slot.store(pkt)

		// Wire faults fire at the link seam, between the buffer and the
		// channel: the buffered copy stays pristine, only the transmitted
		// bytes are damaged, duplicated, or swapped.
		sends := make([]packet[T], 0, 3)
		if n.inj != nil && n.inj.Reorder(e.rank, step) && havePrev {
			// Swap adjacent packets: the previous round's packet is
			// transmitted ahead of the current one.
			sends = append(sends, prev)
		}
		first := pkt
		if n.inj != nil && n.inj.CorruptWire(e.rank, step, 0) {
			first = corruptPacket(pkt, step)
		}
		sends = append(sends, first)
		if n.inj != nil && n.inj.Duplicate(e.rank, step) {
			sends = append(sends, first)
		}

		for _, sp := range sends {
			select {
			case n.chans[e.rank][peer] <- sp:
			case <-n.dead[peer]:
				return nil, 0, st, &DeviceFailedError{Rank: peer, Superstep: step, Reason: "peer dead before send"}
			case <-n.dead[e.rank]:
				return nil, 0, st, &DeviceFailedError{Rank: e.rank, Superstep: step, Reason: "declared dead by peer"}
			case <-timeoutC:
				n.markDead(peer)
				return nil, 0, st, &DeviceFailedError{Rank: peer, Superstep: step, Reason: fmt.Sprintf("exchange send timed out after %s", n.timeout)}
			}
		}
		// Only the real packet counts as traffic; duplicated and reordered
		// copies are fault artifacts, invisible to the cost model.
		lc := &n.linkStats[e.rank][peer]
		lc.msgs.Add(int64(len(msgs)))
		lc.bytes.Add(int64(len(msgs)) * perMsg)
		st.MsgsSent += int64(len(msgs))
	}

	// Receive from every peer. Every delivery is checksum-verified before
	// anything else is trusted; the decoded wire header is then the
	// authority for the epoch/sequence fence. Classification:
	//
	//	decode/CRC failure   → CorruptDrops, NACK: pull a retransmission
	//	                       from the sender's buffer (capped backoff;
	//	                       budget exhausted declares the link dead)
	//	wrong epoch          → StaleDrops (leftover from before a
	//	                       membership change)
	//	seq < expected       → DupDrops (duplicated or reordered leftover)
	//	seq > expected       → StaleDrops (impossible future packet)
	//	exact epoch and seq  → delivered
	for _, peer := range peers {
		var p packet[T]
		attempt := 0
		backoff := n.retryBase
		fromChannel := true
		// A packet stashed last round (the peer ran ahead while this rank
		// was NACK-retrying) is consumed before the channel; it re-enters
		// the classification below like any other delivery.
		if e.hasPending != nil && e.hasPending[peer] {
			p = e.pending[peer]
			e.pending[peer] = packet[T]{}
			e.hasPending[peer] = false
			fromChannel = false
		}
	recv:
		for {
			if fromChannel {
				select {
				case p = <-n.chans[peer][e.rank]:
				case <-n.dead[peer]:
					// The peer died, but it may have sent this round's payload
					// before dying — drain it if so, otherwise the round is lost.
					select {
					case p = <-n.chans[peer][e.rank]:
					default:
						return nil, 0, st, &DeviceFailedError{Rank: peer, Superstep: step, Reason: "peer died mid-round"}
					}
				case <-n.dead[e.rank]:
					return nil, 0, st, &DeviceFailedError{Rank: e.rank, Superstep: step, Reason: "declared dead by peer"}
				case <-timeoutC:
					n.markDead(peer)
					return nil, 0, st, &DeviceFailedError{Rank: peer, Superstep: step, Reason: fmt.Sprintf("exchange timed out after %s", n.timeout)}
				}
			}
			fromChannel = true
			hdr, msgs32, derr := decodePacket(p.wire)
			if derr != nil {
				// Bad bytes on the wire: drop the delivery and NACK. The
				// round trip to the sender is modeled by the backoff sleep;
				// the retransmission is pulled from the sender's buffer. A
				// link that stays corrupt past the retry budget is dead,
				// and the corrupting sender is to blame.
				st.CorruptDrops++
				n.integ.corrupt.Add(1)
				attempt++
				if attempt > maxLinkRetries {
					n.markDead(peer)
					return nil, 0, st, &DeviceFailedError{
						Rank: peer, Superstep: step, Injected: true,
						Reason: fmt.Sprintf("link integrity: %d consecutive corrupt deliveries (%v)", attempt, derr),
					}
				}
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxRetryBackoff {
					backoff = maxRetryBackoff
				}
				if rp, ok := n.sent[peer][e.rank].load(step); ok {
					st.Retransmits++
					n.integ.retrans.Add(1)
					n.linkStats[peer][e.rank].retrans.Add(1)
					// A persistently corrupting link damages retransmissions
					// too; the injector indexes transmission attempts.
					if n.inj != nil && n.inj.CorruptWire(peer, step, attempt) {
						rp = corruptPacket(rp, step+int64(attempt))
					}
					p = rp
					fromChannel = false
				}
				continue
			}
			if hdr.epoch != epoch {
				st.StaleDrops++
				n.integ.stale.Add(1)
				continue
			}
			if hdr.seq != step {
				switch {
				case hdr.seq < step:
					st.DupDrops++
					n.integ.dup.Add(1)
				case hdr.seq == step+1 && e.hasPending != nil && !e.hasPending[peer]:
					// The lockstep peer ran one round ahead while this rank
					// was NACK-retrying: keep its early packet for the next
					// round instead of losing it.
					e.pending[peer] = p
					e.hasPending[peer] = true
				case hdr.seq == step+1:
					// A second copy of the stashed next-round packet
					// (injected duplicate): drop it.
					st.DupDrops++
					n.integ.dup.Add(1)
				default:
					// More than one round ahead is impossible in lockstep:
					// a stale replay.
					st.StaleDrops++
					n.integ.stale.Add(1)
				}
				continue
			}
			// Verified: the wire image is authoritative. Full packets
			// rebuild their messages from the decoded payload; header-only
			// packets carry them out of band.
			p.active = hdr.active
			if !hdr.headerOnly {
				p.msgs = msgsFromF32[T](msgs32)
			}
			break recv
		}
		recv = append(recv, p.msgs...)
		activeRemote += p.active
		st.MsgsRecv += int64(len(p.msgs))
	}

	st.BytesSent = st.MsgsSent * perMsg
	st.BytesRecv = st.MsgsRecv * perMsg
	slower := st.BytesSent
	if st.BytesRecv > slower {
		slower = st.BytesRecv
	}
	st.SimSeconds = n.link.TransferSeconds(slower)
	st.WallNS = time.Since(wallStart).Nanoseconds()
	return recv, activeRemote, st, nil
}

// Abort declares this endpoint's own rank dead — called by an engine whose
// superstep failed outside the exchange (for example a recovered panic in a
// user function), so the peers' next exchange fails fast instead of timing
// out.
func (e *Endpoint[T]) Abort() { e.net.markDead(e.rank) }

// Step returns the number of exchange rounds this endpoint has initiated.
func (e *Endpoint[T]) Step() int64 { return e.step }

// SetStep aligns the endpoint's round counter so that fault-plan steps and
// failure reports index absolute supersteps after a cold-start resume (a run
// restored at superstep s starts its first exchange as round s, not 0).
func (e *Endpoint[T]) SetStep(step int64) { e.step = step }

// Rank returns this endpoint's rank.
func (e *Endpoint[T]) Rank() int { return e.rank }

// readBoard waits for peer's handshake board, bounded by the net's timeout
// and by rank death. what names the handshake in failure reasons.
func readBoard[V any, T any](e *Endpoint[T], boards []*board[V], peer int, timeoutC <-chan time.Time, what string) (V, error) {
	n := e.net
	var zero V
	select {
	case <-boards[peer].ready:
	case <-n.dead[peer]:
		if v, ok := boards[peer].get(); ok {
			return v, nil
		}
		return zero, &DeviceFailedError{Rank: peer, Reason: fmt.Sprintf("peer died during %s handshake", what)}
	case <-n.dead[e.rank]:
		return zero, &DeviceFailedError{Rank: e.rank, Reason: "declared dead by peer"}
	case <-timeoutC:
		n.markDead(peer)
		return zero, &DeviceFailedError{Rank: peer, Reason: fmt.Sprintf("%s handshake timed out after %s", what, n.timeout)}
	}
	v, _ := boards[peer].get()
	return v, nil
}

// ResumeHandshake exchanges the restored checkpoint generation with every
// live peer before a resumed run starts. All ranks must agree on the
// generation they restored from — in the paper's symmetric-MPI setting this
// is where the processes would reconcile their views of shared storage; here
// it guards against wiring bugs that would restore the ranks from different
// snapshots. It is bounded by the net's timeout and by peer death, like
// ExchangeAll.
func (e *Endpoint[T]) ResumeHandshake(gen uint64) (uint64, error) {
	n := e.net
	var timeoutC <-chan time.Time
	if n.timeout > 0 {
		timer := time.NewTimer(n.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	n.resumeB[e.rank].post(gen)
	for _, peer := range e.livePeers() {
		peerGen, err := readBoard(e, n.resumeB, peer, timeoutC, "resume")
		if err != nil {
			return 0, err
		}
		if peerGen != gen {
			return peerGen, fmt.Errorf("comm: resume generation mismatch: rank %d restored gen %d, rank %d restored gen %d",
				e.rank, gen, peer, peerGen)
		}
	}
	return gen, nil
}

// RejoinHandshake re-admits restarted ranks at a superstep barrier after a
// degrade→heal cycle. Every live member posts the (epoch, checkpoint
// generation, restart superstep) triple it believes the healed run resumes
// under and must agree with every peer on all three; the epoch must also
// match the net's current epoch as bumped by the supervisor's NewEpoch.
// Mirrors ResumeHandshake: bounded by the net's timeout and by peer death.
func (e *Endpoint[T]) RejoinHandshake(epoch, gen uint64, step int64) error {
	n := e.net
	if cur := n.epoch.Load(); cur != epoch {
		return fmt.Errorf("comm: rejoin epoch mismatch: rank %d expects epoch %d, net is at epoch %d",
			e.rank, epoch, cur)
	}
	var timeoutC <-chan time.Time
	if n.timeout > 0 {
		timer := time.NewTimer(n.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	info := rejoinInfo{epoch: epoch, gen: gen, step: step}
	n.rejoinB[e.rank].post(info)
	for _, peer := range e.livePeers() {
		peerInfo, err := readBoard(e, n.rejoinB, peer, timeoutC, "rejoin")
		if err != nil {
			if dfe, ok := err.(*DeviceFailedError); ok && dfe.Superstep == 0 {
				dfe.Superstep = step
			}
			return err
		}
		if peerInfo != info {
			return fmt.Errorf("comm: rejoin mismatch: rank %d at (epoch %d, gen %d, step %d), rank %d at (epoch %d, gen %d, step %d)",
				e.rank, info.epoch, info.gen, info.step, peer, peerInfo.epoch, peerInfo.gen, peerInfo.step)
		}
	}
	return nil
}

// Combiner accumulates remote messages per destination and combines
// duplicates with a user reduction before the exchange ("to reduce the
// communication overhead, a combination is conducted to the remote message
// buffer"). It is the remote message buffer of Fig. 2 for reducible types.
type Combiner[T any] struct {
	combine func(a, b T) T
	has     []bool
	vals    []T
	touched []graph.VertexID
}

// NewCombiner creates a combiner over n destination vertices.
func NewCombiner[T any](n int, combine func(a, b T) T) *Combiner[T] {
	return &Combiner[T]{
		combine: combine,
		has:     make([]bool, n),
		vals:    make([]T, n),
	}
}

// Add merges one remote message. Not safe for concurrent use; the engine
// shards combiners per thread and merges, or guards with the generation
// scheme's ownership, depending on the scheme.
func (c *Combiner[T]) Add(dst graph.VertexID, v T) {
	if c.has[dst] {
		c.vals[dst] = c.combine(c.vals[dst], v)
		return
	}
	c.has[dst] = true
	c.vals[dst] = v
	c.touched = append(c.touched, dst)
}

// Merge folds another combiner into this one (used to join per-thread
// shards before the exchange).
func (c *Combiner[T]) Merge(o *Combiner[T]) {
	for _, dst := range o.touched {
		c.Add(dst, o.vals[dst])
	}
}

// Drain appends the combined messages to out, resets the combiner, and
// returns out. Message order follows first-touch order, which is
// deterministic for a deterministic generation order.
func (c *Combiner[T]) Drain(out []Msg[T]) []Msg[T] {
	var zero T
	for _, dst := range c.touched {
		out = append(out, Msg[T]{Dst: dst, Val: c.vals[dst]})
		c.has[dst] = false
		c.vals[dst] = zero
	}
	c.touched = c.touched[:0]
	return out
}

// DrainRouted distributes the combined messages into per-rank buckets using
// rankOf (the partition assignment), resets the combiner, and returns the
// buckets. out must have one slot per rank of the group; existing bucket
// contents are appended to. Message order within a bucket follows
// first-touch order, like Drain.
func (c *Combiner[T]) DrainRouted(out [][]Msg[T], rankOf func(graph.VertexID) int) [][]Msg[T] {
	var zero T
	for _, dst := range c.touched {
		r := rankOf(dst)
		out[r] = append(out[r], Msg[T]{Dst: dst, Val: c.vals[dst]})
		c.has[dst] = false
		c.vals[dst] = zero
	}
	c.touched = c.touched[:0]
	return out
}

// Len returns the number of distinct destinations currently held.
func (c *Combiner[T]) Len() int { return len(c.touched) }
