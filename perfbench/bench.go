package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workloads"
)

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 9

// run is one simulation of a workload's plan, identified by the same axes
// the result store keys it on. pol is nil for the serial elision.
type run struct {
	spec workloads.Spec
	pol  sched.Policy
	mach harness.Machine
	p    int
	seed int64
}

func (r run) serial() bool { return r.pol == nil }

func (r run) policyName() string {
	if r.serial() {
		return "serial"
	}
	return r.pol.Name()
}

// key is the run's content address in the store and the grid journal.
func (r run) key() journal.Key {
	opt := harness.Options{Topology: r.mach.Top, P: r.p, Seed: r.seed, Verify: true}
	return harness.KeyFor(r.spec, r.pol, opt, r.serial())
}

// id names the run the way a /v1/grid row identifies itself.
func (r run) id() string {
	return rowID(r.spec.Name, r.mach.Name, r.policyName(), r.p, r.seed)
}

func rowID(bench, topo, policy string, p int, seed int64) string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", bench, topo, policy, p, seed)
}

// bench is one workload's environment: the resolved registry entries,
// the machines with their reusable arenas, and an HTTP test server whose
// handler each phase points at its own sweep server.
type bench struct {
	w        *workload
	seed     int64 // first scheduler seed
	seconds  time.Duration
	dir      string
	files    int
	specs    map[string]workloads.Spec
	machines []harness.Machine
	arenas   map[string]*core.Arena
	setups   []time.Duration

	handler atomic.Pointer[http.Handler]
	http    *httptest.Server
	client  *http.Client
	st      *store.Store // the store behind the current handler
	mem     *memSampler
	cold    []gridRow // the rows of the last cold /v1/grid, until checked
}

// newBench sets the workload up setupReps times, keeping the last
// environment: registry snapshot, machine models, a temp store, a sweep
// server over it and the HTTP server in front.
func newBench(w *workload, seed int64, seconds time.Duration, dir string) (*bench, error) {
	b := &bench{w: w, seed: schedSeed(seed), seconds: seconds, dir: dir}
	for i := 0; i < setupReps; i++ {
		b.close()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.close()
			return nil, err
		}
		b.setups = append(b.setups, time.Since(t0))
	}
	b.mem = startMemSampler()
	return b, nil
}

// schedSeed maps the benchmark's seed argument onto a valid scheduler
// seed: seeds 1 to 2^31 map to themselves, any other onto that range (the
// engine reserves 0).
func schedSeed(seed int64) int64 {
	const span = 1 << 31
	return 1 + ((seed-1)%span+span)%span
}

func (b *bench) setup() error {
	b.specs = map[string]workloads.Spec{}
	for _, sp := range workloads.Specs(b.w.scale) {
		b.specs[sp.Name] = sp
	}
	machines, err := harness.Machines(b.w.machines)
	if err != nil {
		return err
	}
	b.machines = machines
	b.arenas = map[string]*core.Arena{}
	for _, m := range machines {
		// Building a runtime builds the machine's cache model into the
		// arena, which the traced run reuses.
		a := core.NewArena()
		core.NewRuntime(core.Config{
			Sched: sched.Config{Topology: m.Top, Workers: m.Top.Cores(), Policy: sched.NUMAWS, Seed: 1},
			Arena: a,
		})
		b.arenas[m.Name] = a
	}
	if _, err := b.serveStore(b.newFile()); err != nil {
		return err
	}
	b.http = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*b.handler.Load()).ServeHTTP(w, r)
	}))
	b.client = b.http.Client()
	resp, err := b.client.Get(b.http.URL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// serveStore opens the store at path and points the HTTP server at a new
// sweep server over it, closing the previous store.
func (b *bench) serveStore(path string) (*store.Store, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: st, Jobs: 1})
	if err != nil {
		st.Close()
		return nil, err
	}
	if b.st != nil {
		b.st.Close() // read back already; nothing more is written to it
	}
	h := srv.Handler()
	b.handler.Store(&h)
	b.st = st
	return st, nil
}

// newFile names a fresh file in the run's temp directory.
func (b *bench) newFile() string {
	b.files++
	return filepath.Join(b.dir, fmt.Sprintf("store-%d.jsonl", b.files))
}

func (b *bench) close() {
	if b.mem != nil {
		b.mem.close()
		b.mem = nil
	}
	if b.http != nil {
		b.http.Close()
		b.http = nil
	}
	if b.st != nil {
		b.st.Close()
		b.st = nil
	}
}

func (b *bench) spec(name string) workloads.Spec {
	sp, ok := b.specs[name]
	if !ok {
		panic("perfbench: benchmark not registered: " + name)
	}
	return sp
}

// passOut is one protocol pass: its wall time, every plan run's recorded
// result (in plan order; ok false where the run left no record), and the
// tournament ranking where there is one.
type passOut struct {
	peakMB  float64 // memory held from the OS, at its peak
	path    string
	wall    time.Duration
	results []journal.Result
	ok      []bool
	failed  int
	ranking []string
}

// pass runs the workload's protocol once on fresh input pools, recording
// every completed run into a new store file, and reads the records back
// against the plan. Runs that failed are never recorded, so a missing
// record is a failed run.
func (b *bench) pass(ctx context.Context, plan []run, o *outcome) (*passOut, error) {
	path := b.newFile()
	workloads.FlushPools()
	collect()
	b.mem.take()
	t0 := time.Now()
	ranking, err := b.w.protocol(ctx, b, plan, path, o)
	wall := time.Since(t0)
	peak := b.mem.take()
	if err != nil {
		return nil, err
	}
	recs, err := journal.Replay(path)
	if err != nil {
		return nil, err
	}
	out := account(plan, recs, o)
	out.path, out.wall, out.ranking, out.peakMB = path, wall, ranking, peak
	return out, nil
}

// collect empties the heap of everything unreachable, sync.Pool caches
// included (they survive one collection), and returns the memory to the
// OS, so that every pass and warm slice starts from the same heap, as in
// a fresh process.
func collect() {
	runtime.GC()
	debug.FreeOSMemory()
}

// account matches a pass's records against its plan, counting every plan
// run without a record as a failed operation.
func account(plan []run, recs map[journal.Key]journal.Result, o *outcome) *passOut {
	out := &passOut{results: make([]journal.Result, len(plan)), ok: make([]bool, len(plan))}
	for i, r := range plan {
		out.results[i], out.ok[i] = recs[r.key()]
		if !out.ok[i] {
			out.failed++
		}
	}
	if extra := len(recs) - (len(plan) - out.failed); extra != 0 {
		o.problem("the store holds %d records outside the plan", extra)
	}
	o.attempted += len(plan)
	o.failed += out.failed
	return out
}

// samePass reports problems where a repeated pass disagrees with the
// first: every simulated run is deterministic, so any difference is a
// defect.
func samePass(first, again *passOut, plan []run, o *outcome) {
	for i := range plan {
		if first.ok[i] && again.ok[i] && first.results[i] != again.results[i] {
			o.problem("repeated run %s measured %+v, then %+v", plan[i].id(), first.results[i], again.results[i])
			return
		}
	}
	if fmt.Sprint(first.ranking) != fmt.Sprint(again.ranking) {
		o.problem("tournament ranking changed between passes: %v, then %v", first.ranking, again.ranking)
	}
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// OS (mapped and not released: the process's resident heap, stacks and
// runtime structures), read every few milliseconds.
type memSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				held := heldBytes()
				m.mu.Lock()
				m.peak = max(m.peak, held)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// take returns the peak since the last take, in MB, and starts a new one.
func (m *memSampler) take() float64 {
	held := heldBytes()
	m.mu.Lock()
	defer m.mu.Unlock()
	peak := max(m.peak, held)
	m.peak = held
	return float64(peak) / (1 << 20)
}

func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

func heldBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}
