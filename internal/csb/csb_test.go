package csb

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/vec"
)

var inf = float32(math.Inf(1))

// paperBuffer builds the CSB of the paper's running example: Figure 1's
// graph, lane width 4 (w/msg_size = 4) and k = 2, as in Figure 3.
func paperBuffer(t *testing.T, mode InsertMode) *Buffer {
	t.Helper()
	b, err := Build(graph.PaperExample(), Config{Width: 4, K: 2, Identity: inf, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPaperExampleConstruction(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	// "resulting in two vertex groups in total"
	if b.NumGroups() != 2 {
		t.Fatalf("NumGroups = %d, want 2", b.NumGroups())
	}
	if b.GroupWidth() != 8 {
		t.Fatalf("GroupWidth = %d, want 8", b.GroupWidth())
	}
	// "for the first vertex group ... 2 arrays ... length of each being 5.
	//  Similarly, for the second vertex group ... length being 1."
	if b.GroupMaxDegree(0) != 5 {
		t.Errorf("group 0 max degree = %d, want 5", b.GroupMaxDegree(0))
	}
	if b.GroupMaxDegree(1) != 1 {
		t.Errorf("group 1 max degree = %d, want 1", b.GroupMaxDegree(1))
	}
	// Sorted order must match Figure 3's table.
	for pos, want := range graph.PaperExampleSortedByInDegree {
		if got := b.SortedVertex(pos); got != want {
			t.Errorf("sorted[%d] = %d, want %d", pos, got, want)
		}
		if b.Redirect(want) != int32(pos) {
			t.Errorf("redirect[%d] = %d, want %d", want, b.Redirect(want), pos)
		}
	}
	if b.NumTasks() != 4 {
		t.Errorf("NumTasks = %d, want 4 (2 groups x k=2)", b.NumTasks())
	}
	if b.NumVertices() != 16 {
		t.Errorf("NumVertices = %d", b.NumVertices())
	}
}

// paperMessages is Table I: the messages sent by the active vertices
// {6,7,11,13,14,15} of the running SSSP iteration.
func paperMessages() []struct {
	dst graph.VertexID
	val float32
} {
	return []struct {
		dst graph.VertexID
		val float32
	}{
		{2, 6.5}, {2, 7.5}, // from 6 and 7
		{6, 11.0}, {9, 11.5}, // from 11
		{9, 13.0}, {12, 13.5}, // from 13
		{10, 14.0}, // from 14
		{7, 15.0},  // from 15
	}
}

func TestPaperTableIInsertionDynamic(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	if got := b.Messages(); got != 8 {
		t.Fatalf("Messages = %d, want 8", got)
	}
	// Table I touches 6 distinct destinations: 2,6,7,9,10,12.
	if got := b.ColumnsUsed(); got != 6 {
		t.Fatalf("ColumnsUsed = %d, want 6", got)
	}
	// Dynamic allocation condenses columns to the front: group 0 holds
	// destinations {2,9,6,7} (4 columns -> first array only), so its second
	// array (task 1) must be empty.
	if _, rows := b.Task(1); rows != 0 {
		t.Errorf("group 0 array 1 rows = %d, want 0 (condensed)", rows)
	}
	_, rows0 := b.Task(0)
	if rows0 != 2 {
		// Vertex 2 and vertex 9 each receive 2 messages.
		t.Errorf("group 0 array 0 rows = %d, want 2", rows0)
	}
	// Per-destination reduced minimum must match a scalar oracle.
	want := map[graph.VertexID]float32{2: 6.5, 6: 11, 7: 15, 9: 11.5, 10: 14, 12: 13.5}
	got := reduceAll(b)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reduced = %v, want %v", got, want)
	}
}

func TestPaperTableIOneToOne(t *testing.T) {
	b := paperBuffer(t, OneToOne)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	// Same reduction result regardless of mapping policy.
	want := map[graph.VertexID]float32{2: 6.5, 6: 11, 7: 15, 9: 11.5, 10: 14, 12: 13.5}
	if got := reduceAll(b); !reflect.DeepEqual(got, want) {
		t.Errorf("reduced = %v, want %v", got, want)
	}
	// One-to-one wastes lanes: vertex 2 is at sorted position 1 and vertex
	// 9 at position 3, both in array 0 of group 0; vertices 6,7 at
	// positions 6,7 land in array 1. Both arrays of group 0 are occupied,
	// where dynamic mode needed one.
	if _, rows := b.Task(1); rows == 0 {
		t.Errorf("one-to-one: group 0 array 1 unexpectedly empty")
	}
}

// reduceAll performs a full vectorized min-reduction over the buffer and
// returns the per-vertex results.
func reduceAll(b *Buffer) map[graph.VertexID]float32 {
	out := map[graph.VertexID]float32{}
	var lanes []Lane
	for t := 0; t < b.NumTasks(); t++ {
		arr, rows := b.Task(t)
		if rows == 0 {
			continue
		}
		arr.ReduceMin(rows)
		lanes = b.Lanes(t, lanes[:0])
		for _, l := range lanes {
			out[l.Vertex] = arr.At(0, l.Lane)
		}
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	g := graph.PaperExample()
	if _, err := Build(g, Config{Width: 3, K: 2}); err == nil {
		t.Error("accepted invalid width")
	}
	if _, err := Build(g, Config{Width: 4, K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := Build(g, Config{Width: 4, K: 65}); err == nil {
		t.Error("accepted K=65")
	}
	if _, err := Build(g, Config{Width: 4, K: 1, Mode: InsertMode(9)}); err == nil {
		t.Error("accepted unknown mode")
	}
	if Dynamic.String() != "dynamic" || OneToOne.String() != "one-to-one" {
		t.Error("mode names wrong")
	}
	if InsertMode(9).String() == "" {
		t.Error("unknown mode String empty")
	}
}

func TestResetClearsState(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	b.Reset()
	if b.Messages() != 0 || b.ColumnsUsed() != 0 {
		t.Fatal("Reset left messages behind")
	}
	for tk := 0; tk < b.NumTasks(); tk++ {
		if _, rows := b.Task(tk); rows != 0 {
			t.Fatalf("task %d has %d rows after Reset", tk, rows)
		}
	}
	// Cells must be identity again.
	arr, _ := b.Task(0)
	if arr.At(0, 0) != inf {
		t.Fatal("cells not reset to identity")
	}
	// Buffer must be reusable.
	b.Insert(2, 1.5)
	if got := reduceAll(b)[2]; got != 1.5 {
		t.Fatalf("post-reset insert reduced to %v", got)
	}
}

func TestInsertOverflowPanics(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on exceeding group max in-degree")
		}
	}()
	// Vertex 10 has in-degree 1, group 1 max degree 1: second message to
	// any group-1 vertex overflows.
	b.Insert(10, 1)
	b.Insert(10, 2)
}

func TestFootprintCondensed(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	// Group 0: 5 rows x 8 lanes, group 1: 1 x 8 -> 48 cells x 4 bytes.
	if got := b.FootprintBytes(); got != 48*4 {
		t.Errorf("FootprintBytes = %d, want %d", got, 48*4)
	}
	// Naive rectangular buffer: 16 vertices x max degree 5.
	if got := b.NaiveFootprintBytes(); got != 16*5*4 {
		t.Errorf("NaiveFootprintBytes = %d, want %d", got, 16*5*4)
	}
	if b.FootprintBytes() >= b.NaiveFootprintBytes() {
		t.Error("condensed buffer not smaller than naive")
	}
}

func TestSkewedGraphFootprintSavings(t *testing.T) {
	// A star graph: one hub with huge in-degree, everyone else tiny. The
	// condensed buffer's savings are dramatic here.
	n := 1 << 12
	bld := graph.NewBuilder(n, false)
	for v := 1; v < n; v++ {
		bld.AddEdge(graph.VertexID(v), 0, 0)
	}
	g, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Config{Width: 16, K: 2, Identity: 0, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(b.NaiveFootprintBytes()) / float64(b.FootprintBytes()); ratio < 50 {
		t.Errorf("footprint saving ratio = %.1f, want >= 50 on a star graph", ratio)
	}
}

func TestConcurrentInsertMatchesOracle(t *testing.T) {
	// Hammer the buffer from many goroutines; the reduced minimum per
	// destination must equal a sequential oracle. This validates the
	// CAS-based column allocation and atomic row claims under real
	// parallelism (run with -race in CI).
	g := graph.PaperExample()
	tr := g.Transpose() // in-edges: source lists per destination
	b, err := Build(g, Config{Width: 4, K: 2, Identity: inf, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	type msg struct {
		dst graph.VertexID
		val float32
	}
	var all []msg
	rng := rand.New(rand.NewSource(8))
	// Every vertex sends along every out-edge: the maximal message load.
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.Neighbors(graph.VertexID(v)) {
			all = append(all, msg{d, rng.Float32()})
		}
	}
	_ = tr
	oracle := map[graph.VertexID]float32{}
	for _, m := range all {
		if cur, ok := oracle[m.dst]; !ok || m.val < cur {
			oracle[m.dst] = m.val
		}
	}
	for trial := 0; trial < 20; trial++ {
		b.Reset()
		var wg sync.WaitGroup
		const workers = 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(all); i += workers {
					b.Insert(all[i].dst, all[i].val)
				}
			}(w)
		}
		wg.Wait()
		if got := b.Messages(); got != int64(len(all)) {
			t.Fatalf("trial %d: Messages = %d, want %d", trial, got, len(all))
		}
		got := reduceAll(b)
		for v, want := range oracle {
			if got[v] != want {
				t.Fatalf("trial %d: vertex %d reduced to %v, want %v", trial, v, got[v], want)
			}
		}
	}
}

func TestColumnFillsAndOccupancy(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	fills := b.ColumnFills(nil)
	if len(fills) != 6 {
		t.Fatalf("ColumnFills returned %d entries, want 6", len(fills))
	}
	var total int32
	for _, f := range fills {
		total += f
	}
	if total != 8 {
		t.Fatalf("fills sum to %d, want 8", total)
	}
	rows, cells := b.OccupancyStats()
	if cells != 8 {
		t.Errorf("occupied cells = %d, want 8", cells)
	}
	// Group 0 array 0: fills {2,2,1,1} -> 2 rows; group 1 array 0:
	// fills {1,1} -> 1 row.
	if rows != 3 {
		t.Errorf("rows = %d, want 3", rows)
	}
}

// TestChargedRowsIgnoreArrivalOrder: under dynamic allocation the column a
// vertex lands in depends on which of its messages arrives first, but the
// contention fills and the charged SIMD rows must not.
func TestChargedRowsIgnoreArrivalOrder(t *testing.T) {
	// Width 2, one group of four equal-degree vertices (positions = IDs).
	// Fills by vertex: 0:3, 1:1, 2:3, 3:1.
	msgs := []graph.VertexID{0, 0, 0, 1, 2, 2, 2, 3}
	orders := map[string][]graph.VertexID{
		"position": msgs,
		// 0 and 2 claim the first array, 1 and 3 the second: two real rows
		// fewer than the position-order packing.
		"interleaved": {0, 2, 1, 3, 0, 0, 2, 2},
		"reversed":    {3, 2, 2, 2, 1, 0, 0, 0},
	}
	for name, order := range orders {
		b, err := BuildFromDegrees([]int32{3, 3, 3, 3}, Config{Width: 2, K: 2, Identity: 0, Mode: Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range order {
			b.Insert(v, 1)
		}
		if got := b.ColumnFills(nil); !reflect.DeepEqual(got, []int32{3, 1, 3, 1}) {
			t.Errorf("%s: ColumnFills = %v, want position order [3 1 3 1]", name, got)
		}
		// Position-order packing: {0,1} -> 3 rows, {2,3} -> 3 rows.
		if got := b.ChargedRows(); got != 6 {
			t.Errorf("%s: ChargedRows = %d, want 6", name, got)
		}
	}
}

// TestChargedRowsOneToOne: the fixed mapping charges the real per-array
// maxima, bubbles included.
func TestChargedRowsOneToOne(t *testing.T) {
	b := paperBuffer(t, OneToOne)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	rows, _ := b.OccupancyStats()
	if got := b.ChargedRows(); got != rows {
		t.Errorf("ChargedRows = %d, want the occupied arrays' %d rows", got, rows)
	}
}

func TestBuildFromDegrees(t *testing.T) {
	in := []int32{0, 3, 1, 7, 0, 2}
	b, err := BuildFromDegrees(in, Config{Width: 2, K: 1, Identity: 0, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", b.NumGroups())
	}
	// Sorted: 3(7), 1(3), 5(2), 2(1), 0(0), 4(0).
	if b.SortedVertex(0) != 3 || b.SortedVertex(1) != 1 {
		t.Errorf("degree sort wrong: %d %d", b.SortedVertex(0), b.SortedVertex(1))
	}
	if b.GroupMaxDegree(0) != 7 || b.GroupMaxDegree(1) != 2 || b.GroupMaxDegree(2) != 0 {
		t.Errorf("group degrees: %d %d %d", b.GroupMaxDegree(0), b.GroupMaxDegree(1), b.GroupMaxDegree(2))
	}
	if _, err := BuildFromDegrees(in, Config{Width: 5, K: 1}); err == nil {
		t.Error("accepted bad width")
	}
}

// TestDegreeOrderMatchesStableSort: the counting-sort layout is the stable
// comparison sort's permutation — descending in-degree, ties in ascending
// vertex order — over random degree vectors dense in ties and zeros, and
// each group's row count is its largest member degree.
func TestDegreeOrderMatchesStableSort(t *testing.T) {
	widths := []vec.Width{2, vec.WidthCPU, 8, vec.WidthMIC}
	prop := func(raw []uint8, wsel, ksel uint8) bool {
		in := make([]int32, len(raw))
		for i, r := range raw {
			in[i] = int32(r % 9)
		}
		cfg := Config{Width: widths[int(wsel)%len(widths)], K: 1 + int(ksel)%3, Identity: inf, Mode: Dynamic}
		b, err := BuildFromDegrees(in, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		want := make([]graph.VertexID, len(in))
		for v := range want {
			want[v] = graph.VertexID(v)
		}
		sort.SliceStable(want, func(i, j int) bool { return in[want[i]] > in[want[j]] })
		for pos, v := range want {
			if b.SortedVertex(pos) != v || b.Redirect(v) != int32(pos) {
				return false
			}
		}
		for gi := 0; gi < b.NumGroups(); gi++ {
			maxDeg := int32(0)
			for pos := gi * b.GroupWidth(); pos < min((gi+1)*b.GroupWidth(), len(in)); pos++ {
				maxDeg = max(maxDeg, in[want[pos]])
			}
			if b.GroupMaxDegree(gi) != int(maxDeg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestArrayCapacityIsGroupShape: the vector arrays share one slab, and each
// is capped at its own maxDeg × width cells, so no array can grow into its
// neighbour's rows.
func TestArrayCapacityIsGroupShape(t *testing.T) {
	in := []int32{5, 0, 3, 3, 9, 1, 0, 0, 2, 7, 4, 4, 1}
	b, err := BuildFromDegrees(in, Config{Width: 2, K: 2, Identity: inf, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < b.NumTasks(); task++ {
		arr, _ := b.Task(task)
		want := b.GroupMaxDegree(task/b.K()) * b.Width()
		if len(arr.Raw()) != want || cap(arr.Raw()) != want {
			t.Errorf("task %d: array len %d cap %d, want both %d", task, len(arr.Raw()), cap(arr.Raw()), want)
		}
	}
	if _, err := BuildFromDegrees([]int32{2, -1}, Config{Width: 2, K: 1}); err == nil {
		t.Error("accepted a negative in-degree")
	}
}

func TestAccessors(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	if b.Width() != 4 || b.K() != 2 || b.Mode() != Dynamic {
		t.Error("accessors disagree with config")
	}
}

// property: for random degree distributions and random messages bounded by
// in-degree, the vector reduction matches a scalar oracle, in both modes.
func TestQuickReductionMatchesOracle(t *testing.T) {
	f := func(seed int64, modeRaw bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		mode := Dynamic
		if modeRaw {
			mode = OneToOne
		}
		in := make([]int32, n)
		for i := range in {
			in[i] = int32(rng.Intn(6))
		}
		b, err := BuildFromDegrees(in, Config{Width: 4, K: 2, Identity: inf, Mode: mode})
		if err != nil {
			return false
		}
		oracle := map[graph.VertexID]float32{}
		for v := 0; v < n; v++ {
			k := rng.Intn(int(in[v]) + 1)
			for j := 0; j < k; j++ {
				val := rng.Float32() * 100
				b.Insert(graph.VertexID(v), val)
				if cur, ok := oracle[graph.VertexID(v)]; !ok || val < cur {
					oracle[graph.VertexID(v)] = val
				}
			}
		}
		got := reduceAll(b)
		if len(got) != len(oracle) {
			return false
		}
		for v, want := range oracle {
			if got[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// property: dynamic mode never needs more reduction rows than one-to-one.
func TestQuickDynamicCondensesRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(100)
		in := make([]int32, n)
		for i := range in {
			in[i] = int32(rng.Intn(5))
		}
		mk := func(mode InsertMode) *Buffer {
			b, err := BuildFromDegrees(in, Config{Width: 8, K: 2, Identity: 0, Mode: mode})
			if err != nil {
				panic(err)
			}
			return b
		}
		dyn, oto := mk(Dynamic), mk(OneToOne)
		for v := 0; v < n; v++ {
			if in[v] > 0 && rng.Intn(3) == 0 {
				dyn.Insert(graph.VertexID(v), 1)
				oto.Insert(graph.VertexID(v), 1)
			}
		}
		dr, _ := dyn.OccupancyStats()
		or, _ := oto.OccupancyStats()
		return dr <= or
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGenericBuffer(t *testing.T) {
	b := NewGenericBuffer[string](4, 2)
	if b.NumVertices() != 4 {
		t.Fatal("NumVertices wrong")
	}
	b.Insert(1, "a")
	b.Insert(1, "b")
	b.InsertOwned(3, "c")
	if b.Messages() != 3 {
		t.Fatalf("Messages = %d", b.Messages())
	}
	if !b.Has(1) || b.Has(0) {
		t.Error("Has wrong")
	}
	if got := b.Drain(1); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Drain = %v", got)
	}
	fills := b.ColumnFills(nil)
	if len(fills) != 2 {
		t.Errorf("ColumnFills = %v", fills)
	}
	b.Reset()
	if b.Messages() != 0 || b.Has(1) {
		t.Error("Reset incomplete")
	}
	// Shard clamp.
	b2 := NewGenericBuffer[int](2, 0)
	b2.Insert(0, 5)
	if b2.Messages() != 1 {
		t.Error("shard clamp broken")
	}
}

func TestGenericBufferConcurrent(t *testing.T) {
	b := NewGenericBuffer[int](64, 8)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Insert(graph.VertexID((w*per+i)%64), i)
			}
		}(w)
	}
	wg.Wait()
	if got := b.Messages(); got != workers*per {
		t.Fatalf("Messages = %d, want %d", got, workers*per)
	}
}

func TestLanesReportCounts(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	var lanes []Lane
	counts := map[graph.VertexID]int32{}
	for tk := 0; tk < b.NumTasks(); tk++ {
		lanes = b.Lanes(tk, lanes[:0])
		for _, l := range lanes {
			counts[l.Vertex] = l.Count
		}
	}
	want := map[graph.VertexID]int32{2: 2, 9: 2, 6: 1, 7: 1, 10: 1, 12: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("lane counts = %v, want %v", counts, want)
	}
}

func TestWidthMICBuffer(t *testing.T) {
	// Full-width MIC config on the paper graph still reduces correctly.
	b, err := Build(graph.PaperExample(), Config{Width: vec.WidthMIC, K: 2, Identity: inf, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1 (16 vertices in one 32-wide group)", b.NumGroups())
	}
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	want := map[graph.VertexID]float32{2: 6.5, 6: 11, 7: 15, 9: 11.5, 10: 14, 12: 13.5}
	if got := reduceAll(b); !reflect.DeepEqual(got, want) {
		t.Errorf("reduced = %v, want %v", got, want)
	}
}

// property: the buffer survives arbitrary insert/reduce/reset cycles — the
// partial reset must leave no stale cell behind.
func TestQuickResetCycles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		in := make([]int32, n)
		for i := range in {
			in[i] = int32(rng.Intn(5))
		}
		b, err := BuildFromDegrees(in, Config{Width: 4, K: 2, Identity: inf, Mode: Dynamic})
		if err != nil {
			return false
		}
		for round := 0; round < 5; round++ {
			oracle := map[graph.VertexID]float32{}
			for v := 0; v < n; v++ {
				k := rng.Intn(int(in[v]) + 1)
				for j := 0; j < k; j++ {
					val := rng.Float32() * 50
					b.Insert(graph.VertexID(v), val)
					if cur, ok := oracle[graph.VertexID(v)]; !ok || val < cur {
						oracle[graph.VertexID(v)] = val
					}
				}
			}
			got := reduceAll(b)
			if len(got) != len(oracle) {
				return false
			}
			for v, want := range oracle {
				if got[v] != want {
					return false
				}
			}
			b.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResetReturnsBytes(t *testing.T) {
	b := paperBuffer(t, Dynamic)
	if got := b.Reset(); got != 0 {
		t.Fatalf("empty reset rewrote %d bytes", got)
	}
	for _, m := range paperMessages() {
		b.Insert(m.dst, m.val)
	}
	if got := b.Reset(); got != 8*4 {
		t.Fatalf("reset rewrote %d bytes, want 32 (8 messages x 4B)", got)
	}
}

// BenchmarkBuild measures laying out the CSB of a 60k-vertex power-law graph
// at the MIC's 16-lane width: the per-rank, per-job construction cost.
func BenchmarkBuild(b *testing.B) {
	g, err := gen.PowerLaw(gen.DefaultPowerLaw(60000))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Width: vec.WidthMIC, K: 2, Identity: inf, Mode: Dynamic}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
