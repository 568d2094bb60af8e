package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSPSC(t *testing.T) {
	if _, err := NewSPSC[int](0); err == nil {
		t.Error("accepted capacity 0")
	}
	q, err := NewSPSC[int](5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Cap() != 8 {
		t.Errorf("Cap = %d, want 8 (rounded up)", q.Cap())
	}
	q1, _ := NewSPSC[int](1)
	if q1.Cap() != 2 {
		t.Errorf("min cap = %d, want 2", q1.Cap())
	}
}

// TestInitSlab: rings laid over one slab round their capacity like NewSPSC,
// are capped at their own cells, and stay independent — filling one leaves
// its neighbours empty and intact.
func TestInitSlab(t *testing.T) {
	if err := InitSlab(make([]SPSC[int], 2), 0); err == nil {
		t.Error("accepted capacity 0")
	}
	rings := make([]SPSC[int], 3)
	if err := InitSlab(rings, 5); err != nil {
		t.Fatal(err)
	}
	for i := range rings {
		if rings[i].Cap() != 8 || cap(rings[i].buf) != 8 {
			t.Fatalf("ring %d: Cap %d, storage cap %d, want 8 and 8", i, rings[i].Cap(), cap(rings[i].buf))
		}
	}
	for v := 0; rings[1].TryPush(v); v++ {
	}
	if rings[0].Len() != 0 || rings[2].Len() != 0 || rings[1].Len() != 8 {
		t.Fatalf("lens %d %d %d, want 0 8 0", rings[0].Len(), rings[1].Len(), rings[2].Len())
	}
	rings[2].Push(-1)
	for want := 0; want < 8; want++ {
		if v, ok := rings[1].TryPop(); !ok || v != want {
			t.Fatalf("pop %d: got %d, %v", want, v, ok)
		}
	}
	if v, ok := rings[2].TryPop(); !ok || v != -1 {
		t.Fatalf("neighbour ring: got %d, %v, want -1", v, ok)
	}
}

func TestFIFOOrder(t *testing.T) {
	q, _ := NewSPSC[int](8)
	for i := 0; i < 8; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push into full ring succeeded")
	}
	if q.Len() != 8 || q.Empty() {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 8; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop %d = %v,%v", i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	if !q.Empty() {
		t.Fatal("ring not empty")
	}
}

func TestWraparound(t *testing.T) {
	q, _ := NewSPSC[int](4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.Push(round*10 + i)
		}
		for i := 0; i < 3; i++ {
			v, ok := q.TryPop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: pop = %v,%v", round, v, ok)
			}
		}
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	q, _ := NewSPSC[int](64)
	const n = 50000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
		}
	}()
	var sum, count int64
	go func() {
		defer wg.Done()
		expect := 0
		for count < n {
			v, ok := q.TryPop()
			if !ok {
				// On a single-core host, busy-spinning starves the
				// producer; yield instead.
				runtime.Gosched()
				continue
			}
			if v != expect {
				t.Errorf("out of order: got %d, want %d", v, expect)
				return
			}
			expect++
			sum += int64(v)
			count++
		}
	}()
	wg.Wait()
	if count != n {
		t.Fatalf("consumed %d, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestGCRelease(t *testing.T) {
	q, _ := NewSPSC[*int](2)
	x := new(int)
	q.Push(x)
	q.TryPop()
	// The slot must have been cleared so the pointer is collectable.
	if q.buf[0] != nil {
		t.Fatal("popped slot still holds pointer")
	}
}

// property: any interleaved sequence of pushes and pops preserves FIFO and
// never loses or duplicates elements.
func TestQuickFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		q, _ := NewSPSC[int](4)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				if q.TryPush(next) {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.TryPop()
				if ok {
					if len(model) == 0 || model[0] != v {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLenApproximationQuiescent(t *testing.T) {
	q, _ := NewSPSC[int](16)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	q.TryPop()
	q.TryPop()
	if q.Len() != 3 || q.Empty() {
		t.Fatalf("Len after pops = %d", q.Len())
	}
}

func TestBatchWraparound(t *testing.T) {
	// Batches that straddle the ring boundary must land contiguously in
	// FIFO order, on both the push and the pop side.
	q, _ := NewSPSC[int](8)
	next, expect := 0, 0
	dst := make([]int, 5)
	for round := 0; round < 50; round++ {
		batch := make([]int, 5)
		for i := range batch {
			batch[i] = next
			next++
		}
		if got := q.TryPushBatch(batch); got != 5 {
			t.Fatalf("round %d: pushed %d, want 5", round, got)
		}
		k := q.PopBatch(dst)
		if k != 5 {
			t.Fatalf("round %d: popped %d, want 5", round, k)
		}
		for _, v := range dst[:k] {
			if v != expect {
				t.Fatalf("round %d: got %d, want %d", round, v, expect)
			}
			expect++
		}
	}
}

func TestBatchPartialPushAndPop(t *testing.T) {
	q, _ := NewSPSC[int](8)
	big := make([]int, 12)
	for i := range big {
		big[i] = i
	}
	// Only the prefix that fits may be enqueued.
	if got := q.TryPushBatch(big); got != 8 {
		t.Fatalf("TryPushBatch = %d, want 8", got)
	}
	if q.TryPushBatch([]int{99}) != 0 {
		t.Fatal("push into full ring succeeded")
	}
	// Partial pop: a small destination takes only what it can hold.
	small := make([]int, 3)
	if k := q.PopBatch(small); k != 3 || small[0] != 0 || small[2] != 2 {
		t.Fatalf("PopBatch(small) = %d %v", k, small)
	}
	// Oversized destination drains what remains.
	rest := make([]int, 16)
	if k := q.PopBatch(rest); k != 5 || rest[0] != 3 || rest[4] != 7 {
		t.Fatalf("PopBatch(rest) = %d %v", k, rest[:5])
	}
	if !q.Empty() {
		t.Fatal("ring not empty after draining")
	}
}

func TestBatchZeroLength(t *testing.T) {
	q, _ := NewSPSC[int](4)
	if q.TryPushBatch(nil) != 0 {
		t.Error("TryPushBatch(nil) != 0")
	}
	if q.PushBatch(nil) != 0 {
		t.Error("PushBatch(nil) published a cursor")
	}
	if q.PopBatch(nil) != 0 {
		t.Error("PopBatch(nil) != 0")
	}
	q.Push(7)
	if q.PopBatch([]int{}) != 0 {
		t.Error("PopBatch(empty) consumed an element")
	}
	if v, ok := q.TryPop(); !ok || v != 7 {
		t.Fatalf("element disturbed by zero-length ops: %v %v", v, ok)
	}
}

func TestBatchInterleavedWithSingle(t *testing.T) {
	// Mixed per-element and batched operations share the same cursors and
	// must preserve global FIFO order.
	q, _ := NewSPSC[int](16)
	q.Push(0)
	q.Push(1)
	q.TryPushBatch([]int{2, 3, 4})
	q.Push(5)
	q.PushBatch([]int{6, 7})
	if v, ok := q.TryPop(); !ok || v != 0 {
		t.Fatalf("TryPop = %v,%v, want 0", v, ok)
	}
	dst := make([]int, 4)
	if k := q.PopBatch(dst); k != 4 || dst[0] != 1 || dst[3] != 4 {
		t.Fatalf("PopBatch = %d %v", k, dst)
	}
	for want := 5; want <= 7; want++ {
		v, ok := q.TryPop()
		if !ok || v != want {
			t.Fatalf("TryPop = %v,%v, want %d", v, ok, want)
		}
	}
	if !q.Empty() {
		t.Fatal("ring not empty")
	}
}

func TestBatchPushBatchSplitsUnderBackpressure(t *testing.T) {
	// PushBatch on a ring that frees up mid-call must report multiple
	// publications and still deliver everything in order.
	q, _ := NewSPSC[int](4)
	q.TryPushBatch([]int{0, 1, 2})
	done := make(chan int)
	go func() {
		batch := []int{3, 4, 5, 6, 7}
		done <- q.PushBatch(batch)
	}()
	var got []int
	for len(got) < 8 {
		if v, ok := q.TryPop(); ok {
			got = append(got, v)
		} else {
			runtime.Gosched()
		}
	}
	pubs := <-done
	if pubs < 2 {
		t.Errorf("publications = %d, want >= 2 (batch could not fit at once)", pubs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestBatchGCRelease(t *testing.T) {
	q, _ := NewSPSC[*int](4)
	q.TryPushBatch([]*int{new(int), new(int), new(int)})
	dst := make([]*int, 3)
	if k := q.PopBatch(dst); k != 3 {
		t.Fatalf("PopBatch = %d", k)
	}
	for i := 0; i < 3; i++ {
		if q.buf[i] != nil {
			t.Fatalf("popped slot %d still holds pointer", i)
		}
	}
}

// property: any interleaving of batch pushes and pops against a model list
// preserves FIFO and never loses or duplicates elements.
func TestQuickBatchFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		q, _ := NewSPSC[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			size := int(op%4) + 1
			if op&0x80 != 0 {
				batch := make([]int, size)
				for i := range batch {
					batch[i] = next + i
				}
				n := q.TryPushBatch(batch)
				model = append(model, batch[:n]...)
				next += n
			} else {
				dst := make([]int, size)
				k := q.PopBatch(dst)
				if k > len(model) {
					return false
				}
				for i := 0; i < k; i++ {
					if dst[i] != model[i] {
						return false
					}
				}
				model = model[k:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentBatchStress(t *testing.T) {
	// Batched producer vs. batched consumer with mismatched batch sizes,
	// validating the release/acquire pairing under -race.
	q, _ := NewSPSC[int](64)
	const n = 50000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for i < n {
			size := 7 + i%9
			if i+size > n {
				size = n - i
			}
			batch := make([]int, size)
			for j := range batch {
				batch[j] = i + j
			}
			q.PushBatch(batch)
			i += size
		}
	}()
	dst := make([]int, 13)
	expect := 0
	for expect < n {
		k := q.PopBatch(dst)
		if k == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range dst[:k] {
			if v != expect {
				t.Fatalf("out of order: got %d, want %d", v, expect)
			}
			expect++
		}
	}
	wg.Wait()
	if !q.Empty() {
		t.Fatal("ring not empty at end")
	}
}

func TestConcurrentMixedStress(t *testing.T) {
	// Producer alternates single and batched pushes; consumer alternates
	// single and batched pops. Order must still be global FIFO.
	q, _ := NewSPSC[int](32)
	const n = 30000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for i < n {
			if i%3 == 0 {
				q.Push(i)
				i++
				continue
			}
			size := 4 + i%5
			if i+size > n {
				size = n - i
			}
			batch := make([]int, size)
			for j := range batch {
				batch[j] = i + j
			}
			q.PushBatch(batch)
			i += size
		}
	}()
	dst := make([]int, 6)
	expect := 0
	for expect < n {
		if expect%2 == 0 {
			if v, ok := q.TryPop(); ok {
				if v != expect {
					t.Fatalf("got %d, want %d", v, expect)
				}
				expect++
			} else {
				runtime.Gosched()
			}
			continue
		}
		k := q.PopBatch(dst)
		if k == 0 {
			runtime.Gosched()
			continue
		}
		for _, v := range dst[:k] {
			if v != expect {
				t.Fatalf("got %d, want %d", v, expect)
			}
			expect++
		}
	}
	wg.Wait()
}
