package sched

import (
	"repro/internal/deque"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Arena owns the allocation-heavy engine state that survives from one run
// to the next: the worker set (each worker carries its THE deque), the
// per-thief victim pickers, the per-socket push-candidate lists, the event
// queue's backing array, and a Frame free list. harness.Measure* repeats
// thousands of (spec, policy, P, seed) runs on identical machine shapes;
// building each engine inside a reused Arena makes every run after the
// first allocate almost nothing on the steal path.
//
// An Arena is not safe for concurrent use: it may back at most one live
// Engine at a time. The harness keeps one Arena per host worker goroutine.
// Reuse never changes results — a reused engine starts from exactly the
// state a fresh one would (the paper-4x8 pinned outputs and the
// arena-vs-fresh engine tests hold this).
type Arena struct {
	q sim.Queue

	// Cached worker set, valid for the shape in key. Each worker carries
	// its per-thief biased picker (nil when the shape never draws biased
	// victims).
	workers  []*worker
	onSocket [][]int // per-socket worker ids (push candidates)
	key      arenaKey
	// spare holds empty deques salvaged when build shrank the worker set,
	// so a later build that grows it again reuses them, with whatever
	// capacity they grew to, instead of allocating new ones.
	spare []*deque.Deque[*Frame]
	// pickersDirty marks the cached pickers as diverged from the key's
	// weight table: an Adaptive policy rebuilt them mid-run. The next
	// reuse reconstructs them from the base weights so a following run
	// starts exactly where a fresh engine would.
	pickersDirty bool

	// bulkBuf is the StealHalf transfer buffer shared by every bulk steal
	// of every run in this arena (the engine is single-threaded and drains
	// it before returning). Lazily sized to bulkStealMax.
	bulkBuf []*Frame

	// Frame free list. Frames are recycled when they return, so at the end
	// of a completed run every pooled frame is back on the list.
	free   []*Frame
	blocks [][]Frame
}

// initialDequeCapacity is a new deque's capacity. Deque depth is spawn
// depth, tens of frames for the divide-and-conquer benchmarks, so most
// deques never grow; onSpawn doubles a full one up to
// deque.DefaultCapacity, where PushTail panics as it always has.
const initialDequeCapacity = 64

// arenaKey captures every input of worker/picker/candidate construction.
// Topology is compared by pointer: the harness resolves one *Topology per
// measurement sweep, so identity matches within a sweep and a conservative
// rebuild across sweeps costs one construction.
type arenaKey struct {
	top      *topology.Topology
	workers  int
	needBias bool
	mailbox  int
	// placement and bias weights are compared by content (they are
	// re-derived per run, so pointer identity would never match).
	sockets []int
	cores   []int
	weights []float64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

func (k *arenaKey) matches(top *topology.Topology, c *Config, needBias bool) bool {
	if k.top != top || k.workers != c.Workers || k.needBias != needBias ||
		k.mailbox != c.MailboxCapacity {
		return false
	}
	if len(k.sockets) != len(c.Placement.Socket) || len(k.weights) != len(c.BiasWeights) {
		return false
	}
	for i, s := range c.Placement.Socket {
		if k.sockets[i] != s || k.cores[i] != c.Placement.Core[i] {
			return false
		}
	}
	for i, w := range c.BiasWeights {
		if k.weights[i] != w {
			return false
		}
	}
	return true
}

// workersFor returns the worker set for the defaulted config c, reusing the
// cached set when the shape matches and rebuilding it otherwise.
func (a *Arena) workersFor(c *Config, needBias bool) []*worker {
	if a.key.matches(c.Topology, c, needBias) {
		for _, w := range a.workers {
			w.reset()
		}
		if a.pickersDirty {
			if needBias {
				a.buildPickers(c)
			}
			a.pickersDirty = false
		}
		return a.workers
	}
	a.build(c, needBias)
	return a.workers
}

// build constructs workers, pickers and push-candidate lists for shape c
// and records the shape key. The old workers' empty deques are salvaged
// for the new set, and the ones it does not need are parked on the spare
// list.
func (a *Arena) build(c *Config, needBias bool) {
	old := a.workers
	a.workers = make([]*worker, c.Workers)
	for i := range a.workers {
		w := &worker{
			id:     i,
			core:   c.Placement.Core[i],
			socket: c.Placement.Socket[i],
		}
		switch {
		case i < len(old) && old[i].deque.Empty():
			w.deque = old[i].deque
		case len(a.spare) > 0:
			w.deque = a.spare[len(a.spare)-1]
			a.spare[len(a.spare)-1] = nil
			a.spare = a.spare[:len(a.spare)-1]
		default:
			w.deque = deque.New[*Frame](initialDequeCapacity)
		}
		if i < len(old) && cap(old[i].mailbox) >= c.MailboxCapacity {
			w.mailbox = old[i].mailbox[:0:c.MailboxCapacity]
		} else {
			w.mailbox = make([]*Frame, 0, c.MailboxCapacity)
		}
		a.workers[i] = w
	}
	for i := c.Workers; i < len(old); i++ {
		if old[i].deque.Empty() {
			a.spare = append(a.spare, old[i].deque)
		}
	}
	if needBias && c.Workers > 1 {
		a.buildPickers(c)
	}
	a.pickersDirty = false
	a.onSocket = make([][]int, c.Topology.Sockets())
	for w, s := range c.Placement.Socket {
		a.onSocket[s] = append(a.onSocket[s], w)
	}
	a.key = arenaKey{
		top:      c.Topology,
		workers:  c.Workers,
		needBias: needBias,
		mailbox:  c.MailboxCapacity,
		sockets:  append([]int(nil), c.Placement.Socket...),
		cores:    append([]int(nil), c.Placement.Core...),
		weights:  append([]float64(nil), c.BiasWeights...),
	}
}

// buildPickers constructs the per-thief biased pickers: thief t steals
// victim v with weight BiasWeights[hop(t,v)] and weight 0 for itself. The
// hop-class table is the only weight storage; each picker folds it into
// prefix sums once, replacing the old per-worker weights/uweights pair
// re-scanned on every steal. The uniform distribution needs no table at
// all (sim.PickUniformExcept), and a single worker has no victims.
func (a *Arena) buildPickers(c *Config) {
	scratch := make([]float64, c.Workers)
	for _, w := range a.workers {
		for v := range a.workers {
			if v == w.id {
				scratch[v] = 0 // a worker never steals from itself
			} else {
				hop := c.Topology.Distance(w.socket, a.workers[v].socket)
				scratch[v] = c.BiasWeights[hop]
			}
		}
		w.picker = sim.NewPicker(scratch)
	}
}

// newFrame hands out a pooled frame, growing the arena by a block when the
// free list is empty.
func (a *Arena) newFrame() *Frame {
	if len(a.free) == 0 {
		block := make([]Frame, 256)
		a.blocks = append(a.blocks, block)
		for i := range block {
			block[i].pooled = true
			a.free = append(a.free, &block[i])
		}
	}
	f := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return f
}

// release returns a pooled frame to the free list. Only the engine calls
// this, and only when the frame has returned (nothing references it).
func (a *Arena) release(f *Frame) {
	*f = Frame{pooled: true}
	a.free = append(a.free, f)
}
