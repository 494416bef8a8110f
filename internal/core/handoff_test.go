package core

import (
	"runtime"
	"testing"

	"repro/internal/sched"
)

// runPanicking runs root and returns the value Run panicked with (nil if
// it returned).
func runPanicking(rt *Runtime, root Task) (p any) {
	defer func() { p = recover() }()
	rt.Run(root)
	return nil
}

// TestNoCoroutineLeakAfterTaskPanic: when one task panics while its
// siblings and ancestors are parked inside their tasks, Run re-raises the
// task's panic and retires every strand coroutine. A coroutine's goroutine
// is gone by the time stop returns, so the count is back at once.
func TestNoCoroutineLeakAfterTaskPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	var rec func(depth int) Task
	rec = func(depth int) Task {
		return func(ctx Context) {
			ctx.Compute(100)
			if depth == 0 {
				if ctx.Worker() == 3 {
					panic("boom")
				}
				return
			}
			ctx.Spawn(rec(depth - 1))
			ctx.Spawn(rec(depth - 1))
			ctx.Sync()
		}
	}
	p := runPanicking(newRT(8, sched.NUMAWS, 1), rec(8))
	if p != "core: task panicked: boom" {
		t.Fatalf("Run panicked with %#v, want the task's panic", p)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the panicking run", before, after)
	}
}

// TestNoCoroutineLeakAfterInterrupt: an interrupt fired while strands are
// parked inside tasks unwinds them on stop without replacing the engine's
// ErrInterrupted.
func TestNoCoroutineLeakAfterInterrupt(t *testing.T) {
	before := runtime.NumGoroutine()
	polls := 0
	cfg := DefaultConfig(8, sched.Cilk)
	cfg.Sched.Interrupt = func() bool { polls++; return polls == 3 }
	p := runPanicking(NewRuntime(cfg), fib(20))
	if p != sched.ErrInterrupted {
		t.Fatalf("Run panicked with %#v, want sched.ErrInterrupted", p)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before Run, %d after the interrupted run", before, after)
	}
}

// flatLeaf and the flat roots are non-capturing, so the task code itself
// allocates nothing and AllocsPerRun sees only the platform's own cost.
func flatLeaf(ctx Context) { ctx.Compute(50) }

func flatSpawns(ctx Context, n int) {
	for i := 0; i < n; i++ {
		ctx.Spawn(flatLeaf)
	}
	ctx.Sync()
}

func flatRoot100(ctx Context)  { flatSpawns(ctx, 100) }
func flatRoot1000(ctx Context) { flatSpawns(ctx, 1000) }

// TestSpawnPathAllocationFree: on a reused Arena, a run's allocations do
// not grow with its strand count — spawn, handoff and return allocate
// nothing per strand.
func TestSpawnPathAllocationFree(t *testing.T) {
	a := NewArena()
	run := func(root Task) func() {
		return func() {
			cfg := DefaultConfig(4, sched.NUMAWS)
			cfg.Arena = a
			NewRuntime(cfg).Run(root)
		}
	}
	small := testing.AllocsPerRun(20, run(flatRoot100))
	large := testing.AllocsPerRun(20, run(flatRoot1000))
	if large > small {
		t.Errorf("allocs per run: %v with 10x the strands, %v with the base tree; the spawn path allocates per strand", large, small)
	}
}
