package sched

import (
	"reflect"
	"testing"

	"repro/internal/deque"
)

// TestArenaReuseMatchesFreshEngines pins the arena's compatibility
// contract: a sequence of runs through one reused arena — alternating
// policies, worker counts and seeds, so both the shape-match and the
// rebuild paths are exercised — produces exactly the statistics fresh
// engines produce.
func TestArenaReuseMatchesFreshEngines(t *testing.T) {
	type shape struct {
		p    int
		pol  Policy
		seed int64
	}
	shapes := []shape{
		{32, NUMAWS, 1},
		{32, NUMAWS, 2}, // same shape, new seed: the reuse path
		{32, Cilk, 2},   // bias dropped: rebuild
		{8, NUMAWS, 1},  // smaller worker set: rebuild
		{32, NUMAWS, 1}, // back to the first shape
	}
	newRunner := func() *treeRunner {
		return &treeRunner{fanout: 3, depth: 5, leafCost: 700, innerCost: 5,
			placeOf: func(i int) int { return i % 3 }}
	}
	arena := NewArena()
	for i, s := range shapes {
		cfg := testConfig(s.p, s.pol)
		cfg.Seed = s.seed

		fresh := NewEngine(cfg, newRunner())
		want := *fresh.Run(fresh.NewRootFrame(PlaceAny))

		reused := NewEngineIn(arena, cfg, newRunner())
		got := *reused.Run(reused.NewRootFrame(PlaceAny))

		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d (%+v): arena-reused stats differ from fresh engine\ngot:  %+v\nwant: %+v",
				i, s, got, want)
		}
	}
}

// TestArenaFrameRecycling checks the frame pool reaches steady state: after
// a completed run every pooled frame is back on the free list, so a second
// identical run allocates no new frame blocks.
func TestArenaFrameRecycling(t *testing.T) {
	arena := NewArena()
	run := func() {
		r := &treeRunner{fanout: 4, depth: 5, leafCost: 100, innerCost: 2}
		e := NewEngineIn(arena, testConfig(16, NUMAWS), r)
		e.Run(e.NewRootFrame(PlaceAny))
	}
	run()
	blocks, free := len(arena.blocks), len(arena.free)
	if blocks == 0 {
		t.Fatal("engine-built frames did not come from the arena")
	}
	if free != 256*blocks {
		t.Errorf("after a completed run %d of %d pooled frames are free; some frame never returned",
			free, 256*blocks)
	}
	run()
	if len(arena.blocks) != blocks {
		t.Errorf("second identical run grew the arena from %d to %d blocks", blocks, len(arena.blocks))
	}
}

// TestEngineFrameConstructorsMatchPackageOnes checks the pooled
// constructors produce frames indistinguishable from the package-level ones
// apart from pooling.
func TestEngineFrameConstructorsMatchPackageOnes(t *testing.T) {
	e := NewEngine(testConfig(2, Cilk), &treeRunner{fanout: 1, depth: 1, leafCost: 1, innerCost: 1})
	parent := e.NewRootFrame(3)
	if !parent.Root || !parent.Full() || parent.Place != 3 || !parent.pooled {
		t.Errorf("NewRootFrame: %+v", parent)
	}
	f := e.NewFrame(parent, 1)
	if f.Parent != parent || f.Place != 1 || f.Called() || f.Full() || !f.pooled {
		t.Errorf("NewFrame: %+v", f)
	}
	c := e.NewCalledFrame(parent, 2)
	if c.Parent != parent || c.Place != 2 || !c.Called() || !c.pooled {
		t.Errorf("NewCalledFrame: %+v", c)
	}
}

// TestArenaKeepsSurplusDeques: shrinking the worker set parks the deques it
// no longer needs, and growing it again takes them back instead of
// allocating new ones.
func TestArenaKeepsSurplusDeques(t *testing.T) {
	arena := NewArena()
	run := func(p int) map[*deque.Deque[*Frame]]bool {
		e := NewEngineIn(arena, testConfig(p, Cilk), &treeRunner{fanout: 2, depth: 4, leafCost: 100, innerCost: 5})
		e.Run(e.NewRootFrame(PlaceAny))
		ds := make(map[*deque.Deque[*Frame]]bool, p)
		for _, w := range arena.workers {
			ds[w.deque] = true
		}
		return ds
	}
	first := run(32)
	run(8)
	if len(arena.spare) != 24 {
		t.Fatalf("after shrinking 32 -> 8 workers the arena keeps %d spare deques, want 24", len(arena.spare))
	}
	again := run(32)
	if len(arena.spare) != 0 {
		t.Errorf("after growing back to 32 workers %d deques are still spare", len(arena.spare))
	}
	if !reflect.DeepEqual(again, first) {
		t.Error("growing back to 32 workers allocated new deques instead of reusing the salvaged ones")
	}
}

// TestDequeCapacityDoesNotChangeRuns: a spawn chain deeper than a new
// deque's capacity grows the deque, and the run is the one a deque sized
// to deque.DefaultCapacity from the start gives.
func TestDequeCapacityDoesNotChangeRuns(t *testing.T) {
	const depth = 4 * initialDequeCapacity
	chain := func() *treeRunner { return &treeRunner{fanout: 1, depth: depth, leafCost: 50, innerCost: 3} }
	run := func(a *Arena) (Stats, int) {
		e := NewEngineIn(a, testConfig(4, NUMAWS), chain())
		st := *e.Run(e.NewRootFrame(PlaceAny))
		return st, a.workers[0].deque.Cap()
	}
	grown, capacity := run(NewArena())
	if capacity <= initialDequeCapacity {
		t.Fatalf("a %d-deep spawn chain left worker 0's deque at capacity %d", depth, capacity)
	}
	big := NewArena()
	run(big) // builds the worker set
	for _, w := range big.workers {
		w.deque.Grow(deque.DefaultCapacity)
	}
	if full, _ := run(big); !reflect.DeepEqual(grown, full) {
		t.Errorf("growing deques changed the run:\ngrown: %+v\nfull:  %+v", grown, full)
	}
}
