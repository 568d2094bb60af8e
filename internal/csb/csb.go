// Package csb implements the Condensed Static Buffer (§IV-B of the paper),
// the core data structure of the runtime: a message buffer organized so that
// messages destined to w/msg_size different vertices land in the lanes of
// one aligned SIMD row, enabling vectorized message reduction while keeping
// memory bounded.
//
// Construction (once per graph):
//  1. sort vertices by in-degree, descending (stable by ID), and build a
//     redirection map from vertex IDs to sorted positions;
//  2. group consecutive sorted vertices into vertex groups of k*width
//     vertices (k a small constant, width the SIMD lane count);
//  3. allocate k vector arrays per group, each with max-in-degree-of-group
//     rows.
//
// Per iteration, messages are inserted into columns (a column is one lane of
// one of the group's arrays) either by a fixed one-to-one position→column
// mapping, or by dynamic column allocation, which condenses occupied columns
// to the front so fewer rows of fewer arrays need reduction (§IV-C).
package csb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hetgraph/internal/graph"
	"hetgraph/internal/vec"
)

// InsertMode selects the vertex→column mapping policy.
type InsertMode int

const (
	// Dynamic allocates columns on first message per vertex per iteration,
	// condensing used columns to the front of each group (Fig. 3b).
	Dynamic InsertMode = iota
	// OneToOne maps each vertex to a fixed column (Fig. 3a); simpler, but
	// wastes SIMD lanes on vertices that receive nothing. Kept for the
	// ablation benchmarks.
	OneToOne
)

func (m InsertMode) String() string {
	switch m {
	case Dynamic:
		return "dynamic"
	case OneToOne:
		return "one-to-one"
	default:
		return fmt.Sprintf("InsertMode(%d)", int(m))
	}
}

// Config parameterizes buffer construction.
type Config struct {
	// Width is the SIMD lane count (w/msg_size).
	Width vec.Width
	// K is the vertex-group width factor: each group spans K*Width
	// vertices and owns K vector arrays. The paper uses a small constant
	// (2 in its running example).
	K int
	// Identity is the reduction identity stored in empty cells, so that
	// lane bubbles cannot corrupt a SIMD reduction (+Inf for min, 0 for
	// sum, -Inf for max).
	Identity float32
	// Mode is the column-mapping policy.
	Mode InsertMode
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Width.Validate(); err != nil {
		return err
	}
	if c.K < 1 || c.K > 64 {
		return fmt.Errorf("csb: K = %d out of [1,64]", c.K)
	}
	if c.Mode != Dynamic && c.Mode != OneToOne {
		return fmt.Errorf("csb: unknown insert mode %d", int(c.Mode))
	}
	return nil
}

// group is one vertex group: k vector arrays of maxDeg rows, plus the
// dynamic-column-allocation state.
type group struct {
	maxDeg int
	arrays []vec.ArrayF32
	// index[posInGroup] is the column allocated to that vertex this
	// iteration, or -1 ("index array", Fig. 3b). Accessed atomically.
	index []int32
	// owner[col] is the posInGroup that holds the column, or -1.
	owner []int32
	// fill[col] counts messages inserted into the column this iteration.
	// The fetch-add on this counter is the per-insert critical section the
	// locking scheme pays for; the pipelined scheme makes it uncontended
	// by routing each destination to exactly one mover.
	fill []int32
	// colOffset is the next unallocated column ("column offset"),
	// guarded by allocMu during generation.
	colOffset int32
	// allocMu serializes column allocation — the one place the paper's
	// dynamic scheme locks ("allocates the next available column from that
	// vertex group, using locking in the process"). The per-message hot
	// path stays lock-free.
	allocMu sync.Mutex
}

// Buffer is a Condensed Static Buffer for float32 messages.
type Buffer struct {
	cfg        Config
	n          int
	groupWidth int
	// redirect[v] is v's position in the in-degree-sorted order
	// ("redirection map").
	redirect []int32
	// sorted[pos] is the vertex at that position.
	sorted []graph.VertexID
	groups []group
}

// Build constructs the buffer for graph g under cfg. The in-degree sort is
// descending and stable by vertex ID, matching Figure 3.
func Build(g *graph.CSR, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := g.InDegrees()
	return BuildFromDegrees(in, cfg)
}

// BuildFromDegrees constructs the buffer given per-vertex in-degrees
// directly. The heterogeneous engine uses this form: a device's buffer is
// sized by in-degrees restricted to its local partition plus potential
// remote contributions.
//
// The in-degree order is a counting sort (degrees are small non-negative
// integers), which gives exactly the stable comparison sort's permutation:
// descending degree, ties in ascending vertex order. All vector arrays share
// one float32 slab and all index/owner/fill tables one int32 slab, each
// carved into 3-index slices so no table can grow into its neighbour.
func BuildFromDegrees(in []int32, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(in)
	b := &Buffer{
		cfg:        cfg,
		n:          n,
		groupWidth: cfg.K * int(cfg.Width),
	}
	var err error
	if b.sorted, err = sortByDegree(in); err != nil {
		return nil, err
	}
	b.redirect = make([]int32, n)
	for pos, v := range b.sorted {
		b.redirect[v] = int32(pos)
	}
	gw := b.groupWidth
	numGroups := (n + gw - 1) / gw
	b.groups = make([]group, numGroups)
	// The first vertex of a group has its largest in-degree (the order is
	// descending), so it sizes the group's arrays.
	cells := 0
	for gi := range b.groups {
		b.groups[gi].maxDeg = int(in[b.sorted[gi*gw]])
		cells += b.groups[gi].maxDeg * gw
	}
	arrays := make([]vec.ArrayF32, numGroups*cfg.K)
	data := make([]float32, cells)
	tables := make([]int32, 3*numGroups*gw)
	for gi := range b.groups {
		gr := &b.groups[gi]
		gr.arrays = arrays[gi*cfg.K : (gi+1)*cfg.K : (gi+1)*cfg.K]
		size := gr.maxDeg * int(cfg.Width)
		for a := range gr.arrays {
			if gr.arrays[a], err = vec.ArrayF32Over(cfg.Width, data[:size:size]); err != nil {
				return nil, err
			}
			data = data[size:]
		}
		t := tables[3*gi*gw : 3*(gi+1)*gw]
		gr.index = t[:gw:gw]
		gr.owner = t[gw : 2*gw : 2*gw]
		gr.fill = t[2*gw : 3*gw : 3*gw]
	}
	b.initialize()
	return b, nil
}

// sortByDegree returns the vertices ordered by in-degree, descending, ties
// in ascending vertex order, by counting sort: O(n + max degree).
func sortByDegree(in []int32) ([]graph.VertexID, error) {
	var maxDeg int32
	for v, d := range in {
		if d < 0 {
			return nil, fmt.Errorf("csb: vertex %d has negative in-degree %d", v, d)
		}
		maxDeg = max(maxDeg, d)
	}
	// start[d] is the first position of degree d: the number of vertices
	// with a larger degree.
	start := make([]int, int(maxDeg)+2)
	for _, d := range in {
		start[maxDeg-d+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	sorted := make([]graph.VertexID, len(in))
	for v, d := range in {
		sorted[start[maxDeg-d]] = graph.VertexID(v)
		start[maxDeg-d]++
	}
	return sorted, nil
}

// NumVertices returns the number of destinations the buffer covers.
func (b *Buffer) NumVertices() int { return b.n }

// NumGroups returns the vertex-group count.
func (b *Buffer) NumGroups() int { return len(b.groups) }

// GroupWidth returns the vertices per group (k*width).
func (b *Buffer) GroupWidth() int { return b.groupWidth }

// Width returns the SIMD lane width.
func (b *Buffer) Width() int { return int(b.cfg.Width) }

// K returns the group width factor.
func (b *Buffer) K() int { return b.cfg.K }

// Mode returns the insertion mode.
func (b *Buffer) Mode() InsertMode { return b.cfg.Mode }

// GroupMaxDegree returns the row count of group gi's arrays.
func (b *Buffer) GroupMaxDegree(gi int) int { return b.groups[gi].maxDeg }

// Redirect returns the sorted position of vertex v.
func (b *Buffer) Redirect(v graph.VertexID) int32 { return b.redirect[v] }

// SortedVertex returns the vertex at sorted position pos.
func (b *Buffer) SortedVertex(pos int) graph.VertexID { return b.sorted[pos] }

// FootprintBytes returns the allocated message-cell memory. The condensed
// design's point is that this is far below n*maxInDegree*4, the naive
// rectangular buffer ("significantly reduces the memory requirement").
func (b *Buffer) FootprintBytes() int64 {
	var cells int64
	for gi := range b.groups {
		cells += int64(b.groups[gi].maxDeg) * int64(b.groupWidth)
	}
	return cells * 4
}

// NaiveFootprintBytes returns the rectangular n x maxInDegree buffer size
// the condensed layout is compared against.
func (b *Buffer) NaiveFootprintBytes() int64 {
	maxDeg := 0
	for gi := range b.groups {
		if b.groups[gi].maxDeg > maxDeg {
			maxDeg = b.groups[gi].maxDeg
		}
	}
	return int64(b.n) * int64(maxDeg) * 4
}

// initialize fills every cell with the identity and establishes the
// column-mapping state; called once at Build.
func (b *Buffer) initialize() {
	for gi := range b.groups {
		gr := &b.groups[gi]
		for a := range gr.arrays {
			gr.arrays[a].Fill(b.cfg.Identity)
		}
		for i := range gr.index {
			gr.index[i] = -1
			gr.owner[i] = -1
			gr.fill[i] = 0
		}
		gr.colOffset = 0
		if b.cfg.Mode == OneToOne {
			// Fixed mapping: column i belongs to position i; establish it
			// once so Insert and reduction share one code path.
			for i := range gr.index {
				gr.index[i] = int32(i)
				gr.owner[i] = int32(i)
			}
			gr.colOffset = int32(b.groupWidth)
		}
	}
}

// Reset prepares the buffer for a new iteration by clearing only the cells
// that the previous iteration wrote (the CSB is static; a full wipe per
// iteration would cost the whole footprint in bandwidth for nothing when
// few vertices are active, e.g. BFS tails). It returns the number of bytes
// rewritten, which the cost model charges as buffer maintenance traffic.
//
// This partial reset relies on the reduction contract: ReduceVec must be a
// per-lane fold, so lanes that held only identity cells still hold the
// identity afterwards.
func (b *Buffer) Reset() int64 {
	var bytes int64
	w := int(b.cfg.Width)
	for gi := range b.groups {
		gr := &b.groups[gi]
		limit := int(gr.colOffset)
		if limit > len(gr.fill) {
			limit = len(gr.fill)
		}
		for c := 0; c < limit; c++ {
			f := int(gr.fill[c])
			if f > 0 {
				arr := &gr.arrays[c/w]
				lane := c % w
				for r := 0; r < f; r++ {
					arr.Set(r, lane, b.cfg.Identity)
				}
				bytes += int64(f) * 4
			}
			gr.fill[c] = 0
			if b.cfg.Mode == Dynamic {
				if own := gr.owner[c]; own >= 0 {
					gr.index[own] = -1
					gr.owner[c] = -1
				}
			}
		}
		if b.cfg.Mode == Dynamic {
			gr.colOffset = 0
		}
	}
	return bytes
}

// locate splits a destination vertex into (group, position-in-group).
func (b *Buffer) locate(dst graph.VertexID) (gi int, posIn int) {
	pos := int(b.redirect[dst])
	return pos / b.groupWidth, pos % b.groupWidth
}

// Insert places one message for dst into the buffer. It is safe for
// concurrent use: column allocation uses a CAS on the index array plus an
// atomic column-offset increment (the "locking" the paper describes), and
// row claims use an atomic fetch-add on the column fill count.
//
// It panics if dst receives more messages in one iteration than its
// in-degree allows, which would indicate a broken application contract.
func (b *Buffer) Insert(dst graph.VertexID, val float32) {
	gi, posIn := b.locate(dst)
	gr := &b.groups[gi]
	col := atomic.LoadInt32(&gr.index[posIn])
	if col < 0 {
		// Allocate the next available column, exactly once per vertex per
		// iteration, under the group's allocation lock (§IV-B). Distinct
		// vertices per group never exceed the group width, so the offset
		// stays in range.
		col = b.allocColumn(gr, posIn)
	}
	row := atomic.AddInt32(&gr.fill[col], 1) - 1
	if int(row) >= gr.maxDeg {
		panic(fmt.Sprintf("csb: vertex %d received %d messages, exceeding group max in-degree %d", dst, row+1, gr.maxDeg))
	}
	arr := &gr.arrays[int(col)/int(b.cfg.Width)]
	arr.Set(int(row), int(col)%int(b.cfg.Width), val)
}

// InsertOwned places one message for dst without per-message atomics. The
// caller must guarantee single-threaded ownership of dst for the iteration —
// the pipelined scheme does: each destination class (dst mod movers) is
// drained by exactly one mover, so dst's index entry and its column's fill
// count are touched by one goroutine only. Column allocation still takes the
// group's allocMu, because colOffset is shared by every vertex of the group
// and movers owning different classes can allocate in the same group
// concurrently. Visibility to post-run readers (ColumnFills, reduction) is
// established by the pipeline's WaitGroup.
func (b *Buffer) InsertOwned(dst graph.VertexID, val float32) {
	gi, posIn := b.locate(dst)
	gr := &b.groups[gi]
	col := gr.index[posIn]
	if col < 0 {
		col = b.allocColumn(gr, posIn)
	}
	row := gr.fill[col]
	gr.fill[col] = row + 1
	if int(row) >= gr.maxDeg {
		panic(fmt.Sprintf("csb: vertex %d received %d messages, exceeding group max in-degree %d", dst, row+1, gr.maxDeg))
	}
	arr := &gr.arrays[int(col)/int(b.cfg.Width)]
	arr.Set(int(row), int(col)%int(b.cfg.Width), val)
}

// InsertOwnedBatch places one message per (dsts[i], vals[i]) pair under the
// same ownership contract as InsertOwned. This is the batch-insert path the
// movers use when draining whole SPSC batches: one call per drained batch
// instead of one per message.
func (b *Buffer) InsertOwnedBatch(dsts []graph.VertexID, vals []float32) {
	for i, dst := range dsts {
		b.InsertOwned(dst, vals[i])
	}
}

// allocColumn allocates the next available column of gr for posIn under the
// group's allocation lock and returns it.
func (b *Buffer) allocColumn(gr *group, posIn int) int32 {
	gr.allocMu.Lock()
	col := atomic.LoadInt32(&gr.index[posIn])
	if col < 0 {
		col = gr.colOffset
		gr.colOffset++
		atomic.StoreInt32(&gr.owner[col], int32(posIn))
		atomic.StoreInt32(&gr.index[posIn], col)
	}
	gr.allocMu.Unlock()
	return col
}

// ColumnFills appends the per-column message counts of this iteration to
// dst and returns it; the cost model's contention estimator consumes these.
// Fills are emitted in sorted-position order (each occupied vertex's column,
// group by group), not column order: under dynamic allocation which column a
// vertex lands in depends on message arrival order, so column order would
// make the estimator's float summation schedule-dependent. In one-to-one
// mode position and column coincide.
func (b *Buffer) ColumnFills(dst []int32) []int32 {
	for gi := range b.groups {
		walkOccupied(&b.groups[gi], func(f int32) { dst = append(dst, f) })
	}
	return dst
}

// ChargedRows returns the SIMD rows the vectorized reduction of this
// iteration is charged for (Counters.VecRows). In one-to-one mode that is
// the real per-array maximum fill, summed over arrays. In dynamic mode the
// real packing depends on arrival order, so the charge is what it would be
// had the occupied columns been packed in sorted-position order: each run of
// Width consecutive occupied vertices of a group counts its largest fill.
// Either way the charge is a function of the per-vertex message counts alone,
// so identical inputs are charged identical rows at any thread count.
func (b *Buffer) ChargedRows() int64 {
	var rows int64
	if b.cfg.Mode == OneToOne {
		for t := 0; t < b.NumTasks(); t++ {
			_, r := b.Task(t)
			rows += int64(r)
		}
		return rows
	}
	w := int(b.cfg.Width)
	for gi := range b.groups {
		var chunkMax int32
		n := 0
		walkOccupied(&b.groups[gi], func(f int32) {
			chunkMax = max(chunkMax, f)
			if n++; n == w {
				rows += int64(chunkMax)
				chunkMax, n = 0, 0
			}
		})
		rows += int64(chunkMax)
	}
	return rows
}

// walkOccupied calls fn with the fill of every occupied column of gr, in
// position order.
func walkOccupied(gr *group, fn func(fill int32)) {
	used := int(atomic.LoadInt32(&gr.colOffset))
	for pos := 0; pos < len(gr.index) && used > 0; pos++ {
		col := atomic.LoadInt32(&gr.index[pos])
		if col < 0 {
			continue
		}
		used--
		if f := atomic.LoadInt32(&gr.fill[col]); f > 0 {
			fn(f)
		}
	}
}

// ColumnsUsed returns the number of columns allocated this iteration.
func (b *Buffer) ColumnsUsed() int64 {
	var used int64
	for gi := range b.groups {
		gr := &b.groups[gi]
		limit := int(atomic.LoadInt32(&gr.colOffset))
		if limit > len(gr.fill) {
			limit = len(gr.fill)
		}
		for c := 0; c < limit; c++ {
			if atomic.LoadInt32(&gr.fill[c]) > 0 {
				used++
			}
		}
	}
	return used
}

// Messages returns the number of messages inserted this iteration.
func (b *Buffer) Messages() int64 {
	var total int64
	for gi := range b.groups {
		gr := &b.groups[gi]
		for c := range gr.fill {
			total += int64(atomic.LoadInt32(&gr.fill[c]))
		}
	}
	return total
}
