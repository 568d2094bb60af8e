package vec

import (
	"fmt"
	"slices"
)

// ArrayF32 is an aligned vector array: `rows` consecutive rows of `width`
// float32 lanes backed by one contiguous allocation. This is the unit the
// Condensed Static Buffer allocates per vertex group ("k aligned vector
// arrays ... with an array size of max_group_degree").
type ArrayF32 struct {
	width int
	data  []float32
}

// NewArrayF32 allocates a zeroed vector array of the given shape.
func NewArrayF32(w Width, rows int) (*ArrayF32, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if rows < 0 {
		return nil, fmt.Errorf("vec: negative row count %d", rows)
	}
	return &ArrayF32{width: int(w), data: make([]float32, rows*int(w))}, nil
}

// ArrayF32Over lays a vector array over data, which must hold a whole number
// of rows of w lanes; no cells are copied or cleared. The array is returned
// by value so a caller can lay many arrays out in one slice, each over its
// own stretch of one shared slab.
func ArrayF32Over(w Width, data []float32) (ArrayF32, error) {
	if err := w.Validate(); err != nil {
		return ArrayF32{}, err
	}
	if len(data)%int(w) != 0 {
		return ArrayF32{}, fmt.Errorf("vec: %d cells are not a whole number of %d-lane rows", len(data), int(w))
	}
	return ArrayF32{width: int(w), data: data}, nil
}

// MustArrayF32 is NewArrayF32 that panics on invalid shape; for callers that
// validated the width at configuration time.
func MustArrayF32(w Width, rows int) *ArrayF32 {
	a, err := NewArrayF32(w, rows)
	if err != nil {
		panic(err)
	}
	return a
}

// Width returns the lane width of each row.
func (a *ArrayF32) Width() int { return a.width }

// Rows returns the number of rows.
func (a *ArrayF32) Rows() int { return len(a.data) / a.width }

// Row returns row i as a slice aliasing the backing store.
func (a *ArrayF32) Row(i int) []float32 {
	off := i * a.width
	return a.data[off : off+a.width : off+a.width]
}

// At returns the element in row r, lane l.
func (a *ArrayF32) At(r, l int) float32 { return a.data[r*a.width+l] }

// Set stores v into row r, lane l.
func (a *ArrayF32) Set(r, l int, v float32) { a.data[r*a.width+l] = v }

// Fill broadcasts v into every element.
func (a *ArrayF32) Fill(v float32) { FillF32(a.data, v) }

// Raw exposes the backing slice (e.g. for serialization in the comm layer).
func (a *ArrayF32) Raw() []float32 { return a.data }

// ReduceMin folds rows [0,n) with MinF32 into row 0 and returns it.
// This is the paper's SSSP message reduction, one SIMD op per row.
func (a *ArrayF32) ReduceMin(n int) []float32 {
	r0 := a.Row(0)
	for i := 1; i < n; i++ {
		MinF32(r0, r0, a.Row(i))
	}
	return r0
}

// ReduceSum folds rows [0,n) with AddF32 into row 0 and returns it
// (the paper's PageRank reduction).
func (a *ArrayF32) ReduceSum(n int) []float32 {
	r0 := a.Row(0)
	for i := 1; i < n; i++ {
		AddF32(r0, r0, a.Row(i))
	}
	return r0
}

// SortLane sorts the first count cells of lane l ascending, staging the
// strided column through scratch (grown as needed) and returning it for
// reuse. The engine uses this for order-sensitive reductions (float32
// sums): the multiset of a lane's messages is deterministic for a given
// vertex state, so folding the sorted sequence makes the reduction
// byte-deterministic regardless of insertion order. Identity padding above
// count is untouched — x + 0.0 is exact, so the row-order fold over the
// padded tail stays canonical.
func (a *ArrayF32) SortLane(l, count int, scratch []float32) []float32 {
	if count < 2 {
		return scratch
	}
	scratch = scratch[:0]
	for r := 0; r < count; r++ {
		scratch = append(scratch, a.data[r*a.width+l])
	}
	slices.Sort(scratch)
	for r := 0; r < count; r++ {
		a.data[r*a.width+l] = scratch[r]
	}
	return scratch
}

// ArrayI32 is the int32 counterpart of ArrayF32.
type ArrayI32 struct {
	width int
	data  []int32
}

// NewArrayI32 allocates a zeroed int32 vector array.
func NewArrayI32(w Width, rows int) (*ArrayI32, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if rows < 0 {
		return nil, fmt.Errorf("vec: negative row count %d", rows)
	}
	return &ArrayI32{width: int(w), data: make([]int32, rows*int(w))}, nil
}

// Width returns the lane width of each row.
func (a *ArrayI32) Width() int { return a.width }

// Rows returns the number of rows.
func (a *ArrayI32) Rows() int { return len(a.data) / a.width }

// Row returns row i as a slice aliasing the backing store.
func (a *ArrayI32) Row(i int) []int32 {
	off := i * a.width
	return a.data[off : off+a.width : off+a.width]
}

// Fill broadcasts v into every element.
func (a *ArrayI32) Fill(v int32) { FillI32(a.data, v) }

// Raw exposes the backing slice.
func (a *ArrayI32) Raw() []int32 { return a.data }
