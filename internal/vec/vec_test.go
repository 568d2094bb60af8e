package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWidthValid(t *testing.T) {
	valid := []Width{2, 4, 8, 16, 32, 64}
	for _, w := range valid {
		if !w.Valid() {
			t.Errorf("Width(%d).Valid() = false, want true", w)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("Width(%d).Validate() = %v, want nil", w, err)
		}
	}
	invalid := []Width{-4, 0, 1, 3, 5, 6, 7, 12, 17, 128}
	for _, w := range invalid {
		if w.Valid() {
			t.Errorf("Width(%d).Valid() = true, want false", w)
		}
		if err := w.Validate(); err == nil {
			t.Errorf("Width(%d).Validate() = nil, want error", w)
		}
	}
}

func TestWidthDeviceConstants(t *testing.T) {
	if WidthCPU != 4 {
		t.Errorf("WidthCPU = %d, want 4 (SSE4.2 float32 lanes)", WidthCPU)
	}
	if WidthMIC != 16 {
		t.Errorf("WidthMIC = %d, want 16 (IMCI float32 lanes)", WidthMIC)
	}
	if Width(WidthMIC).Lanes64() != 8 {
		t.Errorf("MIC Lanes64 = %d, want 8", Width(WidthMIC).Lanes64())
	}
}

func TestWidthRoundUpGroups(t *testing.T) {
	w := Width(16)
	cases := []struct{ n, up, groups int }{
		{0, 0, 0}, {1, 16, 1}, {16, 16, 1}, {17, 32, 2}, {31, 32, 2}, {32, 32, 2}, {33, 48, 3},
	}
	for _, c := range cases {
		if got := w.RoundUp(c.n); got != c.up {
			t.Errorf("RoundUp(%d) = %d, want %d", c.n, got, c.up)
		}
		if got := w.Groups(c.n); got != c.groups {
			t.Errorf("Groups(%d) = %d, want %d", c.n, got, c.groups)
		}
	}
}

func TestMaskBasics(t *testing.T) {
	m := FullMask(4)
	if m != 0xF {
		t.Fatalf("FullMask(4) = %#x, want 0xF", uint64(m))
	}
	if FullMask(64) != ^Mask(0) {
		t.Fatalf("FullMask(64) should set all bits")
	}
	m = m.Clear(1)
	if m.Bit(1) || !m.Bit(0) || !m.Bit(2) || !m.Bit(3) {
		t.Fatalf("Clear(1) wrong: %#x", uint64(m))
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	if m.Set(1) != 0xF {
		t.Fatalf("Set(1) should restore full mask")
	}
	if !Mask(0).None() || m.None() {
		t.Fatalf("None() wrong")
	}
	a, b := Mask(0b1100), Mask(0b1010)
	if a.And(b) != 0b1000 || a.Or(b) != 0b1110 || a.AndNot(b) != 0b0100 {
		t.Fatalf("mask boolean ops wrong")
	}
}

// property: MinF32 then MaxF32 of the same operands reconstructs a multiset
// {a[i],b[i]} per lane: min+max == a+b.
func TestQuickMinMaxPartition(t *testing.T) {
	f := func(av, bv [8]float32) bool {
		a, b := av[:], bv[:]
		mn := make([]float32, 8)
		mx := make([]float32, 8)
		MinF32(mn, a, b)
		MaxF32(mx, a, b)
		for i := range a {
			if mn[i] > mx[i] {
				return false
			}
			// NaNs are not produced by graph workloads; skip them.
			if math.IsNaN(float64(a[i])) || math.IsNaN(float64(b[i])) {
				continue
			}
			if mn[i]+mx[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// property: masked op touches exactly the enabled lanes.
func TestQuickMaskWriteDiscipline(t *testing.T) {
	f := func(av, bv [8]float32, mbits uint8) bool {
		a, b := av[:], bv[:]
		m := Mask(mbits)
		dst := make([]float32, 8)
		sentinel := float32(-12345)
		FillF32(dst, sentinel)
		MaskAddF32(dst, a, b, m)
		for i := 0; i < 8; i++ {
			if m.Bit(i) {
				if dst[i] != a[i]+b[i] {
					return false
				}
			} else if dst[i] != sentinel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// property: BlendF32 selects b where mask set, a elsewhere.
func TestQuickBlend(t *testing.T) {
	f := func(av, bv [8]float32, mbits uint8) bool {
		a, b := av[:], bv[:]
		m := Mask(mbits)
		dst := make([]float32, 8)
		BlendF32(dst, a, b, m)
		for i := 0; i < 8; i++ {
			want := a[i]
			if m.Bit(i) {
				want = b[i]
			}
			if dst[i] != want && !(math.IsNaN(float64(want)) && math.IsNaN(float64(dst[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// property: horizontal sum equals scalar fold (exact: same order).
func TestQuickHSumMatchesScalarFold(t *testing.T) {
	f := func(av [16]float32) bool {
		var s float32
		for _, v := range av {
			s += v
		}
		got := HSumF32(av[:])
		return got == s || (math.IsNaN(float64(got)) && math.IsNaN(float64(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArithmeticF32(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{10, 20, 30, 40}
	dst := make([]float32, 4)
	AddF32(dst, a, b)
	want := []float32{11, 22, 33, 44}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Add lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	SubF32(dst, b, a)
	for i := range a {
		if dst[i] != b[i]-a[i] {
			t.Fatalf("Sub lane %d wrong", i)
		}
	}
	MulF32(dst, a, b)
	for i := range a {
		if dst[i] != a[i]*b[i] {
			t.Fatalf("Mul lane %d wrong", i)
		}
	}
	DivF32(dst, b, a)
	for i := range a {
		if dst[i] != b[i]/a[i] {
			t.Fatalf("Div lane %d wrong", i)
		}
	}
	AddScalarF32(dst, a, 0.5)
	for i := range a {
		if dst[i] != a[i]+0.5 {
			t.Fatalf("AddScalar lane %d wrong", i)
		}
	}
	MulScalarF32(dst, a, 2)
	for i := range a {
		if dst[i] != a[i]*2 {
			t.Fatalf("MulScalar lane %d wrong", i)
		}
	}
}

func TestInPlaceAliasing(t *testing.T) {
	// dst may alias a (the reduction loop does `res = min(res, row)`).
	a := []float32{5, 1, 7, 3}
	b := []float32{4, 2, 8, 2}
	MinF32(a, a, b)
	want := []float32{4, 1, 7, 2}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("in-place Min lane %d = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestCmpLtF32(t *testing.T) {
	a := []float32{1, 5, 2, 9}
	b := []float32{2, 4, 2, 10}
	m := CmpLtF32(a, b)
	if !m.Bit(0) || m.Bit(1) || m.Bit(2) || !m.Bit(3) {
		t.Fatalf("CmpLt mask = %#b", uint64(m))
	}
}

func TestHMinHMax(t *testing.T) {
	a := []float32{3, -1, 7, 0}
	if HMinF32(a) != -1 {
		t.Errorf("HMin = %v, want -1", HMinF32(a))
	}
	if HMaxF32(a) != 7 {
		t.Errorf("HMax = %v, want 7", HMaxF32(a))
	}
}

func TestGatherScatterF32(t *testing.T) {
	base := []float32{0, 10, 20, 30, 40, 50}
	idx := []int32{5, 0, 3, 3}
	dst := make([]float32, 4)
	GatherF32(dst, base, idx)
	want := []float32{50, 0, 30, 30}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Gather lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	src := []float32{-1, -2, -3, -4}
	ScatterF32(base, src, idx, FullMask(4).Clear(1))
	if base[5] != -1 || base[0] != 0 /* masked off */ || base[3] != -4 /* highest lane wins */ {
		t.Fatalf("Scatter result wrong: %v", base)
	}
}

func TestOpsF64(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{4, 3, 2, 1}
	dst := make([]float64, 4)
	AddF64(dst, a, b)
	for i := range a {
		if dst[i] != 5 {
			t.Fatalf("AddF64 lane %d = %v", i, dst[i])
		}
	}
	SubF64(dst, a, b)
	MulF64(dst, a, b)
	MinF64(dst, a, b)
	want := []float64{1, 2, 2, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MinF64 lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	MaxF64(dst, a, b)
	want = []float64{4, 3, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MaxF64 lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	FillF64(dst, 9)
	MaskAddF64(dst, a, b, Mask(0b0101))
	if dst[0] != 5 || dst[1] != 9 || dst[2] != 5 || dst[3] != 9 {
		t.Fatalf("MaskAddF64 = %v", dst)
	}
	if HSumF64(a) != 10 || HMinF64(a) != 1 {
		t.Fatalf("F64 horizontals wrong")
	}
}

func TestOpsI32(t *testing.T) {
	a := []int32{1, -2, 3, -4}
	b := []int32{-1, 2, -3, 4}
	dst := make([]int32, 4)
	AddI32(dst, a, b)
	for i := range a {
		if dst[i] != 0 {
			t.Fatalf("AddI32 lane %d = %v", i, dst[i])
		}
	}
	SubI32(dst, a, b)
	MinI32(dst, a, b)
	want := []int32{-1, -2, -3, -4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MinI32 lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	MaxI32(dst, a, b)
	want = []int32{1, 2, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MaxI32 lane %d = %v, want %v", i, dst[i], want[i])
		}
	}
	FillI32(dst, 7)
	MaskAddI32(dst, a, b, Mask(0b0011))
	if dst[0] != 0 || dst[1] != 0 || dst[2] != 7 || dst[3] != 7 {
		t.Fatalf("MaskAddI32 = %v", dst)
	}
	MaskMinI32(dst, a, b, FullMask(4))
	if HSumI32([]int32{1, 2, 3}) != 6 {
		t.Fatalf("HSumI32 wrong")
	}
	if HMinI32(a) != -4 {
		t.Fatalf("HMinI32 wrong")
	}
	m := CmpEqI32([]int32{1, 2, 3, 4}, []int32{1, 0, 3, 0})
	if m != 0b0101 {
		t.Fatalf("CmpEqI32 = %#b", uint64(m))
	}
}

func TestArrayF32Shape(t *testing.T) {
	if _, err := NewArrayF32(Width(3), 4); err == nil {
		t.Fatal("NewArrayF32 accepted invalid width")
	}
	if _, err := NewArrayF32(Width(4), -1); err == nil {
		t.Fatal("NewArrayF32 accepted negative rows")
	}
	a := MustArrayF32(Width(4), 3)
	if a.Width() != 4 || a.Rows() != 3 {
		t.Fatalf("shape = %dx%d, want 3x4", a.Rows(), a.Width())
	}
	a.Set(1, 2, 42)
	if a.At(1, 2) != 42 || a.Row(1)[2] != 42 {
		t.Fatalf("Set/At/Row disagree")
	}
	// Row slices must have capacity clamped to the row (no overrun into the
	// next row via append).
	r := a.Row(0)
	if cap(r) != 4 {
		t.Fatalf("row capacity = %d, want 4", cap(r))
	}
	// An array laid over caller storage shares it and takes its shape.
	slab := make([]float32, 8)
	over, err := ArrayF32Over(Width(4), slab)
	if err != nil {
		t.Fatal(err)
	}
	over.Set(1, 3, 7)
	if over.Rows() != 2 || slab[7] != 7 {
		t.Fatalf("ArrayF32Over: %d rows, slab[7] = %v, want 2 rows over the slab", over.Rows(), slab[7])
	}
	if _, err := ArrayF32Over(Width(4), slab[:6]); err == nil {
		t.Fatal("ArrayF32Over accepted a partial row")
	}
	if _, err := ArrayF32Over(Width(3), slab); err == nil {
		t.Fatal("ArrayF32Over accepted invalid width")
	}
}

func TestMustArrayF32Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustArrayF32 did not panic on invalid width")
		}
	}()
	MustArrayF32(Width(5), 1)
}

func TestArrayReduceMin(t *testing.T) {
	a := MustArrayF32(Width(4), 3)
	copy(a.Row(0), []float32{5, 5, 5, 5})
	copy(a.Row(1), []float32{1, 9, 5, 2})
	copy(a.Row(2), []float32{3, 2, 9, 9})
	got := a.ReduceMin(3)
	want := []float32{1, 2, 5, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReduceMin lane %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestArrayReduceSum(t *testing.T) {
	a := MustArrayF32(Width(4), 4)
	for r := 0; r < 4; r++ {
		for l := 0; l < 4; l++ {
			a.Set(r, l, float32(r+1))
		}
	}
	got := a.ReduceSum(4)
	for l := 0; l < 4; l++ {
		if got[l] != 10 {
			t.Fatalf("ReduceSum lane %d = %v, want 10", l, got[l])
		}
	}
	// Reducing a prefix must not touch later rows.
	a.Fill(1)
	a.ReduceSum(2)
	if a.At(2, 0) != 1 || a.At(3, 3) != 1 {
		t.Fatalf("ReduceSum(2) modified rows beyond prefix")
	}
}

func TestArrayI32(t *testing.T) {
	a, err := NewArrayI32(Width(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Width() != 8 || a.Rows() != 2 {
		t.Fatalf("shape wrong")
	}
	a.Fill(3)
	if a.Row(1)[7] != 3 {
		t.Fatalf("Fill wrong")
	}
	if len(a.Raw()) != 16 {
		t.Fatalf("Raw length = %d", len(a.Raw()))
	}
	if _, err := NewArrayI32(Width(7), 2); err == nil {
		t.Fatal("accepted invalid width")
	}
	if _, err := NewArrayI32(Width(8), -2); err == nil {
		t.Fatal("accepted negative rows")
	}
}

// property: ReduceMin over n rows equals per-lane scalar min.
func TestQuickArrayReduceMin(t *testing.T) {
	f := func(rowsRaw [6][4]float32) bool {
		a := MustArrayF32(Width(4), 6)
		for r := range rowsRaw {
			for l, v := range rowsRaw[r] {
				if math.IsNaN(float64(v)) {
					v = 0
				}
				a.Set(r, l, v)
			}
		}
		want := make([]float32, 4)
		for l := 0; l < 4; l++ {
			m := a.At(0, l)
			for r := 1; r < 6; r++ {
				if a.At(r, l) < m {
					m = a.At(r, l)
				}
			}
			want[l] = m
		}
		got := a.ReduceMin(6)
		for l := range want {
			if got[l] != want[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
