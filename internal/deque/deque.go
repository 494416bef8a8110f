// Package deque implements the THE-protocol work-stealing deque from Cilk-5
// (Frigo, Leiserson, Randall, PLDI 1998), which the paper keeps unchanged in
// NUMA-WS: "The THE protocol remains unchanged in NUMA-WS".
//
// The protocol's point is the work-first principle applied to deque access:
// the victim (owner) pushes and pops at the tail without taking a lock in
// the common case, and only synchronizes with a thief when both race for the
// last item. Thieves always lock and take from the head (the oldest, and in
// the ABP potential argument the "top-heavy", item).
//
// The deque is safe for one owner plus any number of concurrent thieves: the
// simulator uses it single-threaded (events are serialized in virtual time)
// and the native executor uses it with real goroutine thieves.
package deque

import (
	"sync"
	"sync/atomic"
)

// Deque is a THE-protocol double-ended queue. The zero value is unusable;
// call New.
type Deque[T any] struct {
	head  atomic.Int64 // H: next index a thief would steal
	tail  atomic.Int64 // T: next index the owner would push
	lock  sync.Mutex   // the "E" in THE: taken by thieves, and by the owner on conflict
	tasks []T
	zero  T
}

// DefaultCapacity bounds deque depth. Depth equals the spawn depth of the
// computation (one entry per in-flight spawned ancestor), which is
// logarithmic for divide-and-conquer programs, so this is generous.
const DefaultCapacity = 1 << 16

// New returns an empty deque with the given capacity (DefaultCapacity if
// capacity <= 0). PushTail never grows it; only the owner's explicit Grow
// does.
func New[T any](capacity int) *Deque[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Deque[T]{tasks: make([]T, capacity)}
}

// PushTail adds x at the tail. Owner-only. It panics if the deque is full
// (spawn depth exceeded capacity).
//
//numaws:alloc-free
func (d *Deque[T]) PushTail(x T) {
	t := d.tail.Load()
	if int(t) == len(d.tasks) {
		// Out of room: compact under the lock. Entries live in [H, T);
		// shift them to the front. Thieves are excluded by the lock.
		d.lock.Lock()
		h := d.head.Load()
		if int(t-h) >= len(d.tasks) {
			d.lock.Unlock()
			panic("deque: capacity exceeded")
		}
		copy(d.tasks, d.tasks[h:t])
		d.tail.Store(t - h)
		d.head.Store(0)
		t = d.tail.Load()
		d.lock.Unlock()
	}
	d.tasks[t] = x
	d.tail.Store(t + 1)
}

// Cap reports the deque's capacity: the most items it can hold before
// PushTail panics.
//
//numaws:alloc-free
func (d *Deque[T]) Cap() int { return len(d.tasks) }

// Grow raises the capacity to n, keeping the items in order; an n no
// larger than the capacity is a no-op. Owner-only, like PushTail: the new
// backing array is swapped in under the lock, which every thief holds
// while it touches the array, and the owner's lock-free PopTail runs on
// the calling goroutine.
func (d *Deque[T]) Grow(n int) {
	d.lock.Lock()
	defer d.lock.Unlock()
	if n <= len(d.tasks) {
		return
	}
	h, t := d.head.Load(), d.tail.Load()
	tasks := make([]T, n)
	copy(tasks, d.tasks[h:t])
	d.tasks = tasks
	d.head.Store(0)
	d.tail.Store(t - h)
}

// PopTail removes and returns the item at the tail. Owner-only. The fast
// path takes no lock; the owner locks only when it races a thief for the
// final item, per the THE protocol.
//
//numaws:alloc-free
func (d *Deque[T]) PopTail() (T, bool) {
	t := d.tail.Load() - 1
	d.tail.Store(t)
	h := d.head.Load()
	if h > t {
		// Possible conflict with a thief: restore, lock, retry.
		d.tail.Store(t + 1)
		d.lock.Lock()
		h = d.head.Load()
		t = d.tail.Load() - 1
		d.tail.Store(t)
		if h > t {
			// The deque is empty (the thief won).
			d.tail.Store(t + 1)
			d.lock.Unlock()
			return d.zero, false
		}
		d.lock.Unlock()
	}
	x := d.tasks[t]
	d.tasks[t] = d.zero
	return x, true
}

// StealHead removes and returns the item at the head. Thief side: always
// locks.
//
//numaws:alloc-free
func (d *Deque[T]) StealHead() (T, bool) {
	d.lock.Lock()
	defer d.lock.Unlock()
	h := d.head.Load()
	d.head.Store(h + 1)
	if h+1 > d.tail.Load() {
		d.head.Store(h) // lost to the owner; restore
		return d.zero, false
	}
	x := d.tasks[h]
	d.tasks[h] = d.zero
	return x, true
}

// StealHalf removes up to half the items in the deque (rounded up) from
// the head into dst and returns how many were taken, in deque order (the
// oldest first — dst[0] is exactly the frame StealHead would have taken).
// Thief side: always locks, like StealHead, and the owner may still race
// it for the final items through the lock-free PopTail fast path, so every
// item is taken with the same increment-then-check handshake as a
// single-frame steal; a lost race stops the bulk transfer early rather
// than double-claiming the item. Taking at most half (of the size observed
// at entry) preserves the ABP potential argument's shape: the victim keeps
// the deeper half of its deque, so a bulk-stealing policy still spreads
// top-heavy work without draining its victims.
//
//numaws:alloc-free
func (d *Deque[T]) StealHalf(dst []T) int {
	d.lock.Lock()
	defer d.lock.Unlock()
	n := d.tail.Load() - d.head.Load()
	if n <= 0 {
		return 0
	}
	k := (n + 1) / 2
	if int64(len(dst)) < k {
		k = int64(len(dst))
	}
	taken := 0
	for int64(taken) < k {
		h := d.head.Load()
		d.head.Store(h + 1)
		if h+1 > d.tail.Load() {
			d.head.Store(h) // lost to the owner; keep what we have
			break
		}
		dst[taken] = d.tasks[h]
		d.tasks[h] = d.zero
		taken++
	}
	return taken
}

// PeekHead returns the head item without removing it, for diagnostics and
// the simulator's deterministic inspection. It takes the lock.
//
//numaws:alloc-free
func (d *Deque[T]) PeekHead() (T, bool) {
	d.lock.Lock()
	defer d.lock.Unlock()
	h, t := d.head.Load(), d.tail.Load()
	if h >= t {
		return d.zero, false
	}
	return d.tasks[h], true
}

// Len reports the current number of items. Racy under concurrency; exact
// when used single-threaded (as in the simulator).
//
//numaws:alloc-free
func (d *Deque[T]) Len() int {
	n := int(d.tail.Load() - d.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Empty reports whether the deque has no items (same caveat as Len).
//
//numaws:alloc-free
func (d *Deque[T]) Empty() bool { return d.Len() == 0 }
