package core

import (
	"fmt"
	"iter"

	"repro/internal/cache"
	"repro/internal/dag"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Config assembles a platform instance: machine shape, scheduler policy and
// knobs, and the cache cost model.
type Config struct {
	// Sched configures the machine (Topology, Workers, Placement) and the
	// scheduler (Policy, costs, ablation switches, Seed).
	Sched sched.Config
	// Geometry sizes the caches; the zero value takes cache.DefaultGeometry.
	Geometry cache.Geometry
	// Latency sets the access cost table; the zero value takes
	// cache.DefaultLatency.
	Latency cache.Latency
	// RecordDAG captures the computation dag during Run, making measured
	// work and span available in Report.DAG (at some memory cost per
	// strand).
	RecordDAG bool
	// Arena, if non-nil, supplies reusable run-scoped storage (the
	// scheduler's worker set, deques, victim pickers and frame pool, and
	// the execution layer's task pool). A nil Arena gets a private one.
	// Reuse never changes results; it only removes per-run allocation.
	// An Arena must back at most one live Runtime at a time.
	Arena *Arena
}

// Arena carries the allocation-heavy state a Runtime can reuse from a
// previous run on the same machine shape. See sched.Arena for the
// scheduler half; the core half pools the per-frame task records and the
// cache-hierarchy model (the largest per-run construction: per-core private
// caches, per-socket LLCs, and the coherence directory's chunks).
type Arena struct {
	sched *sched.Arena
	tasks []*simTask
	hier  *cache.Hierarchy
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{sched: sched.NewArena()} }

// hierarchyFor returns a cache model for the given machine: the arena's
// retained hierarchy Reset to pristine when it models exactly this machine,
// or a freshly built one (retained for next time) when it does not. A Reset
// hierarchy is behaviorally identical to a new one, so reuse never changes
// simulation results.
func (a *Arena) hierarchyFor(top *topology.Topology, geo cache.Geometry, lat cache.Latency) *cache.Hierarchy {
	if a.hier != nil && a.hier.Matches(top, geo, lat) {
		a.hier.Reset()
		return a.hier
	}
	a.hier = cache.NewHierarchy(top, geo, lat)
	return a.hier
}

// DefaultConfig returns a platform on the paper's 4x8 machine with the given
// worker count and policy.
func DefaultConfig(workers int, policy sched.Policy) Config {
	return DefaultConfigOn(topology.XeonE5_4620(), workers, policy)
}

// DefaultConfigOn is DefaultConfig on an arbitrary machine: default cache
// geometry and latencies, bias weights derived from the topology's distance
// matrix, seed 1.
func DefaultConfigOn(top *topology.Topology, workers int, policy sched.Policy) Config {
	return Config{
		Sched: sched.Config{
			Topology: top,
			Workers:  workers,
			Policy:   policy,
			Seed:     1,
		},
	}
}

// Report is the outcome of one run.
type Report struct {
	// Time is the virtual completion time in cycles: TS for a serial run,
	// T_P for a simulated parallel run.
	Time int64
	// Workers is the worker count used (1 for serial).
	Workers int
	// Sched holds scheduler statistics; nil for serial runs.
	Sched *sched.Stats
	// Cache aggregates memory-hierarchy statistics over all cores.
	Cache cache.Stats
	// DAG is the recorded computation dag (only when Config.RecordDAG).
	DAG *dag.Graph
}

// Runtime is one instantiated platform: an allocator, a cache hierarchy and
// a scheduler. A Runtime runs one computation (fresh Runtimes give fresh,
// cold-cache machines, which keeps measurements independent).
type Runtime struct {
	cfg    Config
	alloc  *memory.Allocator
	caches *cache.Hierarchy
	engine *sched.Engine
	arena  *Arena

	// Strand-coroutine pool for this run: strand execution switches
	// between the engine and one coroutine per live frame; finished frames'
	// coroutines are reused for later frames instead of being restarted.
	units     []*unit
	freeUnits []*unit

	used bool
}

// NewRuntime builds a platform from cfg.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Sched.Topology == nil {
		panic("core: Config.Sched.Topology is required")
	}
	if cfg.Geometry == (cache.Geometry{}) {
		cfg.Geometry = cache.DefaultGeometry()
	}
	if cfg.Latency == (cache.Latency{}) {
		cfg.Latency = cache.DefaultLatency()
	}
	if cfg.Arena == nil {
		cfg.Arena = NewArena()
	}
	rt := &Runtime{
		cfg:    cfg,
		alloc:  memory.NewAllocator(cfg.Sched.Topology.Sockets()),
		caches: cfg.Arena.hierarchyFor(cfg.Sched.Topology, cfg.Geometry, cfg.Latency),
		arena:  cfg.Arena,
	}
	return rt
}

// Alloc reserves a simulated region. Typically called by the root task
// during setup; also usable before Run.
func (rt *Runtime) Alloc(name string, size int64, pol memory.Policy) *memory.Region {
	return rt.alloc.Alloc(name, size, pol)
}

// Allocator exposes the runtime's allocator for the typed-array helpers.
func (rt *Runtime) Allocator() *memory.Allocator { return rt.alloc }

// Topology reports the machine.
func (rt *Runtime) Topology() *topology.Topology { return rt.cfg.Sched.Topology }

// Places reports how many virtual places the configured run will have (one
// per socket hosting at least one worker). Programs use it at setup time to
// partition data, mirroring the paper's "the programmer needs to use the
// runtime to query the number of sockets and perform the appropriate data
// partitioning".
func (rt *Runtime) Places() int {
	pl := rt.cfg.Sched.Placement
	if pl == nil {
		pl = rt.cfg.Sched.Topology.Pack(rt.cfg.Sched.Workers)
	}
	return pl.Used
}

// Run executes root under the configured parallel scheduler and returns the
// run report. A Runtime is single-use.
func (rt *Runtime) Run(root Task) *Report {
	rt.checkFresh()
	var runner sched.Runner = (*simRunner)(rt)
	var rec *dag.Recorder
	if rt.cfg.RecordDAG {
		rec = dag.Wrap(runner)
		runner = rec
	}
	// Release the strand-coroutine pool even if the run panics, so parked
	// coroutines never outlive the Runtime.
	defer rt.closeUnits()
	rt.engine = sched.NewEngineIn(rt.arena.sched, rt.cfg.Sched, runner)
	rootFrame := rt.engine.NewRootFrame(PlaceAny)
	rootFrame.Data = newSimTask(rt, rootFrame, root)
	stats := rt.engine.Run(rootFrame)
	rep := &Report{
		Time:    stats.Makespan,
		Workers: rt.cfg.Sched.Workers,
		Sched:   stats,
		Cache:   rt.caches.TotalStats(),
	}
	if rec != nil {
		rep.DAG = rec.Graph()
	}
	return rep
}

// RunSerial executes root as the serial elision — "removing the parallel
// control constructs": Spawn degenerates to Call and Sync to a no-op — and
// returns the TS report. Memory and compute costs are still charged (to
// core 0), because TS is a real execution time, just without parallel
// overhead.
func (rt *Runtime) RunSerial(root Task) *Report {
	rt.checkFresh()
	ctx := &serialCtx{rt: rt}
	root(ctx)
	return &Report{
		Time:    ctx.clock,
		Workers: 1,
		Cache:   rt.caches.TotalStats(),
	}
}

func (rt *Runtime) checkFresh() {
	if rt.used {
		panic("core: a Runtime runs one computation; create a new Runtime per run")
	}
	rt.used = true
}

// serialCtx implements Context for the serial elision.
type serialCtx struct {
	rt    *Runtime
	clock int64
	place int
	polls int
}

var _ Context = (*serialCtx)(nil)

// serialPollInterval amortizes the serial elision's interrupt poll the way
// interruptPollInterval amortizes the engine's: one check every power-of-two
// calls. Must be a power of two.
const serialPollInterval = 1024

// poll checks the run's interrupt hook. Serial runs execute inline on the
// caller's goroutine with no event loop in between, so the elision itself
// polls at its Spawn/Compute edges; the panic unwinds to the harness
// containment boundary exactly like the engine's.
func (c *serialCtx) poll() {
	c.polls++
	if c.polls&(serialPollInterval-1) == 0 {
		if f := c.rt.cfg.Sched.Interrupt; f != nil && f() {
			panic(sched.ErrInterrupted)
		}
	}
}

func (c *serialCtx) Spawn(t Task) { c.poll(); t(c) }
func (c *serialCtx) SpawnAt(p int, t Task) {
	c.poll()
	old := c.place
	c.place = p
	t(c)
	c.place = old
}
func (c *serialCtx) Sync()           {}
func (c *serialCtx) Call(t Task)     { c.poll(); t(c) }
func (c *serialCtx) Compute(n int64) { c.poll(); c.clock += n }
func (c *serialCtx) NumPlaces() int  { return c.rt.cfg.Sched.Topology.Sockets() }
func (c *serialCtx) Place() int      { return c.place }
func (c *serialCtx) SetPlace(p int)  { c.place = p }
func (c *serialCtx) Worker() int     { return 0 }

func (c *serialCtx) Read(r *memory.Region, off, n int64) {
	c.clock += c.rt.caches.AccessRange(c.clock, 0, r, off, n, false)
}

func (c *serialCtx) Write(r *memory.Region, off, n int64) {
	c.clock += c.rt.caches.AccessRange(c.clock, 0, r, off, n, true)
}

func (c *serialCtx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.clock += c.rt.caches.AccessStrided(c.clock, 0, r, off, stride, elem, count, false)
}

func (c *serialCtx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.clock += c.rt.caches.AccessStrided(c.clock, 0, r, off, stride, elem, count, true)
}

// simRunner adapts the Runtime to sched.Runner. It is a distinct type only
// to keep the Resume method off Runtime's public surface.
type simRunner Runtime

// Resume implements sched.Runner by switching to the frame's coroutine
// until its next scheduling event. Exactly one strand runs at a time
// (strict handoff), which keeps the simulation deterministic. A fresh
// task first gets a unit from the pool. When the task returns, its unit and
// task record go back to the pools for the next frame — the steady-state
// loop starts no coroutines and allocates no task state. A task panic
// resurfaces from next, on the engine goroutine.
func (r *simRunner) Resume(w int, f *sched.Frame) sched.Yield {
	rt := (*Runtime)(r)
	t := f.Data.(*simTask)
	t.ctx.worker = w
	t.ctx.core = rt.engine.CoreOf(w)
	t.ctx.start = rt.engine.ClockOf(w)
	if t.u == nil {
		t.u = rt.getUnit()
		t.u.task = t
	}
	u := t.u
	y, _ := u.next()
	if y.Kind == sched.YieldReturn {
		// The task is done: its unit is parked at the yield between tasks.
		// Nothing references either anymore (the engine recycles the frame
		// when it applies this yield), so both are safe to hand to the next
		// frame.
		u.task = nil
		rt.freeUnits = append(rt.freeUnits, u)
		rt.putTask(t)
	}
	return y
}

// unit is one pooled strand coroutine. Its sequence runs the tasks it is
// given back to back, yielding every scheduling event to the engine; next
// resumes it and stop retires it.
type unit struct {
	next  func() (sched.Yield, bool)
	stop  func()
	yield func(sched.Yield) bool
	task  *simTask
}

func (rt *Runtime) getUnit() *unit {
	if n := len(rt.freeUnits); n > 0 {
		u := rt.freeUnits[n-1]
		rt.freeUnits = rt.freeUnits[:n-1]
		return u
	}
	u := &unit{}
	u.next, u.stop = iter.Pull(u.run)
	rt.units = append(rt.units, u)
	return u
}

// run is the unit's sequence: the assigned task's function, then an
// implicit sync (every Cilk function syncs before returning), then a Return
// yield, after which the engine has handed the unit its next task — or
// stopped it.
func (u *unit) run(yield func(sched.Yield) bool) {
	u.yield = yield
	defer func() {
		//numaws:recover-ok unwind-only: swallows the unitUnwind a stopped unit raises so stop never replaces an in-flight panic; every other panic is re-raised
		if p := recover(); p != nil {
			if _, unwind := p.(unitUnwind); unwind {
				return // torn-down Runtime: no engine is listening for a yield
			}
			panic(fmt.Sprintf("core: task panicked: %v", p))
		}
	}()
	for {
		t := u.task
		t.fn(&t.ctx)
		if t.ctx.spawned {
			t.ctx.Sync()
		}
		if !yield(sched.Yield{Kind: sched.YieldReturn, Cost: t.ctx.cost}) {
			return
		}
	}
}

// closeUnits retires the run's coroutines. A unit parked between tasks
// sees its yield return false and leaves its loop. A unit still parked
// inside a task — possible when the run panicked or was interrupted —
// unwinds it through handoff's unitUnwind, which run swallows, so stop
// returns without disturbing the engine's panic. A unit whose task panicked
// has already finished. Nothing outlives the Runtime.
func (rt *Runtime) closeUnits() {
	for _, u := range rt.units {
		u.stop()
	}
	rt.units, rt.freeUnits = nil, nil
}

// unitUnwind is the panic value handoff raises when its unit is stopped;
// unit.run swallows it to finish the coroutine without yielding to an
// engine that no longer exists.
type unitUnwind struct{}

// simTask is the continuation state of one frame: the user's Task, its
// context, and the unit running it (nil until the frame first runs).
type simTask struct {
	fn  Task
	ctx simCtx
	u   *unit
}

func newSimTask(rt *Runtime, f *sched.Frame, fn Task) *simTask {
	t := rt.getTask()
	t.fn = fn
	t.ctx = simCtx{rt: rt, frame: f, task: t}
	return t
}

func (rt *Runtime) getTask() *simTask {
	a := rt.arena
	if n := len(a.tasks); n > 0 {
		t := a.tasks[n-1]
		a.tasks = a.tasks[:n-1]
		return t
	}
	return &simTask{}
}

// putTask clears a finished task record — dropping its frame and closure
// references for the collector — and pools it for the next frame.
func (rt *Runtime) putTask(t *simTask) {
	*t = simTask{}
	rt.arena.tasks = append(rt.arena.tasks, t)
}

// simCtx implements Context on the simulated platform.
type simCtx struct {
	rt      *Runtime
	frame   *sched.Frame
	task    *simTask
	worker  int
	core    int
	start   int64 // virtual time at which the current strand was resumed
	cost    int64 // cycles accumulated in the current strand
	spawned bool  // whether anything was spawned since the last sync
}

// now is the strand's current virtual time, so DRAM bandwidth queuing sees
// real arrival times.
func (c *simCtx) now() int64 { return c.start + c.cost }

var _ Context = (*simCtx)(nil)

func (c *simCtx) Spawn(t Task)          { c.spawnAt(c.frame.Place, t) }
func (c *simCtx) SpawnAt(p int, t Task) { c.spawnAt(c.checkPlace(p), t) }

func (c *simCtx) checkPlace(p int) int {
	if p != PlaceAny && (p < 0 || p >= c.NumPlaces()) {
		panic(fmt.Sprintf("core: place %d out of range [0,%d)", p, c.NumPlaces()))
	}
	return p
}

func (c *simCtx) spawnAt(place int, fn Task) {
	child := c.rt.engine.NewFrame(c.frame, place)
	child.Data = newSimTask(c.rt, child, fn)
	c.spawned = true
	c.handoff(sched.Yield{Kind: sched.YieldSpawn, Cost: c.cost, Child: child})
}

func (c *simCtx) Sync() {
	c.spawned = false
	c.handoff(sched.Yield{Kind: sched.YieldSync, Cost: c.cost})
}

// Call runs t as a plain (non-spawn) Cilk function call: same worker, no
// stealable continuation, but its own frame — so a cilk_sync inside t waits
// only for t's own spawned children, never the caller's.
func (c *simCtx) Call(t Task) {
	child := c.rt.engine.NewCalledFrame(c.frame, c.frame.Place)
	child.Data = newSimTask(c.rt, child, t)
	c.handoff(sched.Yield{Kind: sched.YieldCall, Cost: c.cost, Child: child})
}

// handoff ends the current strand with y and parks the coroutine until
// the engine resumes it. On a torn-down Runtime the yield returns false
// instead, and the unwind panic retires the coroutine through unit.run.
func (c *simCtx) handoff(y sched.Yield) {
	c.cost = 0
	if !c.task.u.yield(y) {
		panic(unitUnwind{})
	}
}

func (c *simCtx) Compute(n int64) { c.cost += n }

func (c *simCtx) Read(r *memory.Region, off, n int64) {
	c.cost += c.rt.caches.AccessRange(c.now(), c.core, r, off, n, false)
}

func (c *simCtx) Write(r *memory.Region, off, n int64) {
	c.cost += c.rt.caches.AccessRange(c.now(), c.core, r, off, n, true)
}

func (c *simCtx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.cost += c.rt.caches.AccessStrided(c.now(), c.core, r, off, stride, elem, count, false)
}

func (c *simCtx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.cost += c.rt.caches.AccessStrided(c.now(), c.core, r, off, stride, elem, count, true)
}

func (c *simCtx) NumPlaces() int { return c.rt.engine.Places() }
func (c *simCtx) Place() int     { return c.frame.Place }
func (c *simCtx) SetPlace(p int) { c.frame.Place = c.checkPlace(p) }
func (c *simCtx) Worker() int    { return c.worker }

// QueueCycles reports the total extra cycles the run paid to DRAM bandwidth
// congestion (see cache.Latency.DRAMOccupancy).
func (rt *Runtime) QueueCycles() int64 { return rt.caches.QueueCycles }
