package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLIFOAtTail(t *testing.T) {
	d := New[int](8)
	for i := 1; i <= 3; i++ {
		d.PushTail(i)
	}
	for want := 3; want >= 1; want-- {
		got, ok := d.PopTail()
		if !ok || got != want {
			t.Fatalf("PopTail() = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	if _, ok := d.PopTail(); ok {
		t.Error("PopTail on empty deque succeeded")
	}
}

func TestFIFOAtHead(t *testing.T) {
	d := New[int](8)
	for i := 1; i <= 3; i++ {
		d.PushTail(i)
	}
	for want := 1; want <= 3; want++ {
		got, ok := d.StealHead()
		if !ok || got != want {
			t.Fatalf("StealHead() = (%d, %v), want (%d, true)", got, ok, want)
		}
	}
	if _, ok := d.StealHead(); ok {
		t.Error("StealHead on empty deque succeeded")
	}
}

func TestOwnerAndThiefInterleaved(t *testing.T) {
	d := New[int](8)
	d.PushTail(1) // oldest
	d.PushTail(2)
	d.PushTail(3) // newest
	if got, _ := d.StealHead(); got != 1 {
		t.Errorf("thief got %d, want 1 (oldest)", got)
	}
	if got, _ := d.PopTail(); got != 3 {
		t.Errorf("owner got %d, want 3 (newest)", got)
	}
	if got, _ := d.PopTail(); got != 2 {
		t.Errorf("owner got %d, want 2", got)
	}
	if d.Len() != 0 {
		t.Errorf("Len() = %d, want 0", d.Len())
	}
}

func TestPeekHead(t *testing.T) {
	d := New[int](4)
	if _, ok := d.PeekHead(); ok {
		t.Error("PeekHead on empty succeeded")
	}
	d.PushTail(7)
	got, ok := d.PeekHead()
	if !ok || got != 7 {
		t.Errorf("PeekHead() = (%d, %v), want (7, true)", got, ok)
	}
	if d.Len() != 1 {
		t.Error("PeekHead consumed the item")
	}
}

func TestCompactionOnFull(t *testing.T) {
	d := New[int](4)
	for i := 0; i < 4; i++ {
		d.PushTail(i)
	}
	// Steal two to free space at the front; pushes should compact.
	d.StealHead()
	d.StealHead()
	d.PushTail(4)
	d.PushTail(5)
	want := []int{2, 3, 4, 5}
	for _, w := range want {
		got, ok := d.StealHead()
		if !ok || got != w {
			t.Fatalf("after compaction StealHead() = (%d, %v), want (%d, true)", got, ok, w)
		}
	}
}

func TestCapacityPanic(t *testing.T) {
	d := New[int](2)
	d.PushTail(1)
	d.PushTail(2)
	defer func() {
		if recover() == nil {
			t.Error("overfull push did not panic")
		}
	}()
	d.PushTail(3)
}

func TestGrowKeepsItemsInOrder(t *testing.T) {
	d := New[int](4)
	for i := 0; i < 4; i++ {
		d.PushTail(i)
	}
	d.StealHead() // the live items no longer start at index 0
	d.Grow(2)     // smaller than the capacity: no-op
	if d.Cap() != 4 {
		t.Fatalf("Grow(2) changed the capacity to %d", d.Cap())
	}
	d.Grow(16)
	if d.Cap() != 16 || d.Len() != 3 {
		t.Fatalf("after Grow(16): Cap %d Len %d, want 16 and 3", d.Cap(), d.Len())
	}
	for i := 4; i < 16; i++ {
		d.PushTail(i)
	}
	if v, ok := d.StealHead(); !ok || v != 1 {
		t.Errorf("StealHead() = (%d, %v), want the oldest item 1", v, ok)
	}
	if v, ok := d.PopTail(); !ok || v != 15 {
		t.Errorf("PopTail() = (%d, %v), want the newest item 15", v, ok)
	}
}

// TestConcurrentGrowNoDuplicates grows the deque on the owner's side while
// thieves steal: every item is still taken exactly once.
func TestConcurrentGrowNoDuplicates(t *testing.T) {
	const items = 5000
	d := New[int](2)
	seen := make([]atomic.Int32, items)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.StealHead(); ok {
					seen[v].Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		if d.Len() == d.Cap() {
			d.Grow(2 * d.Cap())
		}
		d.PushTail(i)
		if i%3 == 0 {
			if v, ok := d.PopTail(); ok {
				seen[v].Add(1)
			}
		}
	}
	close(done)
	wg.Wait()
	for {
		v, ok := d.StealHead()
		if !ok {
			break
		}
		seen[v].Add(1)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, n)
		}
	}
}

func TestZeroCapacityGetsDefault(t *testing.T) {
	d := New[int](0)
	for i := 0; i < 100; i++ {
		d.PushTail(i)
	}
	if d.Len() != 100 {
		t.Errorf("Len() = %d, want 100", d.Len())
	}
}

// Property: any sequence of pushes then k steals + j pops partitions the
// items: steals see the oldest k in order, pops see the newest j newest-first.
func TestPartitionProperty(t *testing.T) {
	f := func(n, k uint8) bool {
		count := int(n)%32 + 1
		steals := int(k) % (count + 1)
		d := New[int](64)
		for i := 0; i < count; i++ {
			d.PushTail(i)
		}
		for i := 0; i < steals; i++ {
			got, ok := d.StealHead()
			if !ok || got != i {
				return false
			}
		}
		for i := count - 1; i >= steals; i-- {
			got, ok := d.PopTail()
			if !ok || got != i {
				return false
			}
		}
		_, ok := d.PopTail()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Concurrent stress: one owner pushes/pops, many thieves steal. Every item
// must be consumed exactly once in total.
func TestConcurrentOwnerThieves(t *testing.T) {
	const items = 20000
	const thieves = 4
	d := New[int64](items + 1)
	var consumed atomic.Int64
	var stolen atomic.Int64
	var wg sync.WaitGroup

	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := d.StealHead(); ok {
					consumed.Add(1)
					stolen.Add(1)
				}
				select {
				case <-stop:
					// Drain anything left before exiting.
					for {
						if _, ok := d.StealHead(); !ok {
							return
						}
						consumed.Add(1)
						stolen.Add(1)
					}
				default:
				}
			}
		}()
	}

	// Owner: push all items, popping a few along the way like a real worker.
	for i := int64(0); i < items; i++ {
		d.PushTail(i)
		if i%3 == 0 {
			if _, ok := d.PopTail(); ok {
				consumed.Add(1)
			}
		}
	}
	// Owner drains its remainder.
	for {
		if _, ok := d.PopTail(); !ok {
			break
		}
		consumed.Add(1)
	}
	close(stop)
	wg.Wait()
	// Final sweep in case a thief parked an index transiently.
	for {
		if _, ok := d.StealHead(); !ok {
			break
		}
		consumed.Add(1)
	}

	if got := consumed.Load(); got != items {
		t.Errorf("consumed %d items, want %d", got, items)
	}
}

func TestConcurrentNoDuplicates(t *testing.T) {
	const items = 5000
	d := New[int](items)
	seen := make([]atomic.Int32, items)
	var wg sync.WaitGroup
	done := make(chan struct{})

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.StealHead(); ok {
					seen[v].Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		d.PushTail(i)
		if v, ok := d.PopTail(); ok {
			seen[v].Add(1)
		}
	}
	close(done)
	wg.Wait()
	for {
		if v, ok := d.StealHead(); ok {
			seen[v].Add(1)
		} else {
			break
		}
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, n)
		}
	}
}

func TestStealHalfTakesCeilHalfFromHead(t *testing.T) {
	for n := 0; n <= 9; n++ {
		d := New[int](16)
		for i := 0; i < n; i++ {
			d.PushTail(i)
		}
		dst := make([]int, 16)
		got := d.StealHalf(dst)
		want := (n + 1) / 2
		if got != want {
			t.Fatalf("n=%d: StealHalf took %d items, want %d", n, got, want)
		}
		for i := 0; i < got; i++ {
			if dst[i] != i {
				t.Fatalf("n=%d: dst[%d] = %d, want %d (oldest first)", n, i, dst[i], i)
			}
		}
		if d.Len() != n-want {
			t.Fatalf("n=%d: victim kept %d items, want %d", n, d.Len(), n-want)
		}
		// The victim's remaining items are the deeper half, still poppable
		// in LIFO order.
		for i := n - 1; i >= want; i-- {
			v, ok := d.PopTail()
			if !ok || v != i {
				t.Fatalf("n=%d: PopTail() = (%d, %v), want (%d, true)", n, v, ok, i)
			}
		}
	}
}

func TestStealHalfBoundedByDst(t *testing.T) {
	d := New[int](16)
	for i := 0; i < 10; i++ {
		d.PushTail(i)
	}
	dst := make([]int, 2)
	if got := d.StealHalf(dst); got != 2 {
		t.Fatalf("StealHalf with len-2 dst took %d, want 2", got)
	}
	if dst[0] != 0 || dst[1] != 1 {
		t.Fatalf("StealHalf took %v, want [0 1]", dst)
	}
	if d.Len() != 8 {
		t.Fatalf("victim has %d items, want 8", d.Len())
	}
	if got := d.StealHalf(nil); got != 0 {
		t.Fatalf("StealHalf with nil dst took %d, want 0", got)
	}
}

func TestStealHalfConcurrentNoDuplicates(t *testing.T) {
	const items = 5000
	d := New[int](items)
	seen := make([]atomic.Int32, items)
	var wg sync.WaitGroup
	done := make(chan struct{})

	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]int, items)
			for {
				k := d.StealHalf(dst)
				for j := 0; j < k; j++ {
					seen[dst[j]].Add(1)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < items; i++ {
		d.PushTail(i)
		if v, ok := d.PopTail(); ok {
			seen[v].Add(1)
		}
	}
	close(done)
	wg.Wait()
	for {
		if v, ok := d.StealHead(); ok {
			seen[v].Add(1)
		} else {
			break
		}
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, n)
		}
	}
}
