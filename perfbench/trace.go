package main

// The traced run. One untraced pass under a CPU profile gives the
// reference results, the untraced wall time, the allocation and GC
// figures and the profile's split by package. A second pass then drives
// every run of the plan itself — workloads.Checkout, core.NewRuntime on
// the machine's reused arena, Run with the root task wrapped in a
// timing context, Verify — and must reproduce every untraced result
// exactly. The pass's records are then replayed into a fresh store and
// served warm through the sweep server. trace_overhead is the traced
// pass's wall time over the untraced pass's, which also pays for the
// harness, the record writes and the profiler.
//
// One set of counters serves every task because the simulator hands off
// strictly: exactly one task goroutine runs at a time, so the intervals
// between boundary marks never overlap. Memory calls never yield;
// Spawn, Sync and Call yield to the engine, so the time from a yield to
// the next task's resume is the engine's and the handoff's.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// storeOpens is how many times the populated store is reopened; open_s is
// the median.
const storeOpens = 5

// tracer attributes the time between consecutive boundary marks: to the
// task bodies, to the memory model, or to the engine and handoff.
type tracer struct {
	last                  time.Time
	body, access, handoff time.Duration
	calls                 int64
}

func (tr *tracer) lap() time.Duration {
	now := time.Now()
	d := now.Sub(tr.last)
	tr.last = now
	return d
}

// wrap times a task: the time before it starts is the handoff that
// resumed it, and its own code up to a boundary is body time.
func (tr *tracer) wrap(t core.Task) core.Task {
	return func(c core.Context) {
		tr.handoff += tr.lap()
		t(tctx{Context: c, tr: tr})
		tr.body += tr.lap()
	}
}

// tctx is the Context a traced task sees: the runtime's, with every
// yielding and every memory call timed and the rest passed through.
type tctx struct {
	core.Context
	tr *tracer
}

func (c tctx) yield(call func()) {
	c.tr.body += c.tr.lap()
	call()
	c.tr.handoff += c.tr.lap()
}

func (c tctx) access(call func()) {
	c.tr.body += c.tr.lap()
	call()
	c.tr.access += c.tr.lap()
	c.tr.calls++
}

func (c tctx) Spawn(t core.Task) { c.yield(func() { c.Context.Spawn(c.tr.wrap(t)) }) }
func (c tctx) SpawnAt(p int, t core.Task) {
	c.yield(func() { c.Context.SpawnAt(p, c.tr.wrap(t)) })
}
func (c tctx) Sync()            { c.yield(c.Context.Sync) }
func (c tctx) Call(t core.Task) { c.yield(func() { c.Context.Call(c.tr.wrap(t)) }) }

func (c tctx) Read(r *memory.Region, off, n int64) {
	c.access(func() { c.Context.Read(r, off, n) })
}
func (c tctx) Write(r *memory.Region, off, n int64) {
	c.access(func() { c.Context.Write(r, off, n) })
}
func (c tctx) ReadStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.access(func() { c.Context.ReadStrided(r, off, stride, elem, count) })
}
func (c tctx) WriteStrided(r *memory.Region, off, stride, elem int64, count int) {
	c.access(func() { c.Context.WriteStrided(r, off, stride, elem, count) })
}

// traceTotals accumulates one traced pass.
type traceTotals struct {
	tracer
	checkout, verify time.Duration
	cache            cache.Stats
	sched            sched.Stats
}

// tracedRun executes one plan run the way the harness does, timing each
// layer, and returns its replayable totals.
func (b *bench) tracedRun(r run, tt *traceTotals) (journal.Result, error) {
	t0 := time.Now()
	pol, workers := r.pol, r.p
	aware := false
	if r.serial() {
		pol, workers = sched.Cilk, 1
	} else {
		aware = pol.Biased() || pol.Pushes()
	}
	w, lease := workloads.Checkout(r.spec, aware, false)
	tt.checkout += time.Since(t0)
	rt := core.NewRuntime(core.Config{
		Sched:    sched.Config{Topology: r.mach.Top, Workers: workers, Policy: pol, Seed: r.seed},
		Geometry: cache.DefaultGeometry(),
		Latency:  cache.DefaultLatency(),
		Arena:    b.arenas[r.mach.Name],
	})
	t1 := time.Now()
	w.Prepare(rt)
	tt.checkout += time.Since(t1)

	tt.last = time.Now()
	var rep *core.Report
	if r.serial() {
		rep = rt.RunSerial(tt.wrap(w.Root()))
	} else {
		rep = rt.Run(tt.wrap(w.Root()))
	}
	tt.handoff += tt.lap() // the engine's wind-down after the root's last yield

	t2 := time.Now()
	err := w.Verify()
	tt.verify += time.Since(t2)
	if err != nil {
		lease.Discard()
		return journal.Result{}, fmt.Errorf("%s: verify: %w", r.id(), err)
	}
	lease.Release()
	tt.cache.Add(&rep.Cache)
	res := journal.Result{Time: rep.Time}
	if s := rep.Sched; s != nil {
		res.Work, res.Sched, res.Idle = s.WorkTotal(), s.SchedTotal(), s.IdleTotal()
		tt.sched.Events += s.Events
		tt.sched.Spawns += s.Spawns
		tt.sched.StealAttempts += s.StealAttempts
		tt.sched.Steals += s.Steals
		tt.sched.Pushes += s.Pushes
		tt.sched.PushAttempts += s.PushAttempts
		tt.sched.MailboxSteals += s.MailboxSteals
		tt.sched.BulkSteals += s.BulkSteals
	}
	return res, nil
}

// runTraced is the per-layer run.
func (b *bench) runTraced(ctx context.Context) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	v := o.values
	plan := b.w.plan(b)

	// Untraced reference pass, profiled.
	prof := filepath.Join(b.dir, "cpu.pprof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	ref, err := b.pass(ctx, plan, o)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	b.checkCold(plan, ref, o)
	v["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	v["runtime.gc_cpu_s"] = after.gcCPU - before.gcCPU
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for _, p := range cpuPackages {
		v["cpu_share."+p] = shares[p]
	}

	// Traced pass over the same plan, on fresh pools like every pass.
	workloads.FlushPools()
	collect()
	built0, pooled0, refs0, _ := workloads.PoolCounters()
	var tt traceTotals
	t0 := time.Now()
	for i, r := range plan {
		o.attempted++
		res, err := b.tracedRun(r, &tt)
		switch {
		case err != nil:
			o.failed++
			o.problem("traced run %v", err)
		case !ref.ok[i] || res != ref.results[i]:
			o.problem("traced run %s measured %+v, untraced %+v", r.id(), res, ref.results[i])
		}
	}
	wall := time.Since(t0)
	built1, pooled1, refs1, _ := workloads.PoolCounters()
	v["workloads.body_s"] = tt.body.Seconds()
	v["workloads.checkout_s"] = tt.checkout.Seconds()
	v["workloads.verify_s"] = tt.verify.Seconds()
	v["workloads.inputs_built"] = float64(built1 - built0)
	v["workloads.inputs_pooled"] = float64(pooled1 - pooled0)
	v["workloads.refs"] = float64(refs1 - refs0)
	lines := tt.cache.Total()
	v["cache.access_s"] = tt.access.Seconds()
	v["cache.calls"] = float64(tt.calls)
	v["cache.lines"] = float64(lines)
	v["cache.ns_per_line"] = ratio(float64(tt.access.Nanoseconds()), float64(lines))
	for k, name := range cacheKinds {
		v["cache.lines."+name] = float64(tt.cache.Count[k])
	}
	v["cache.remote_frac"] = ratio(float64(tt.cache.Remote()), float64(lines))
	v["sched.handoff_s"] = tt.handoff.Seconds()
	v["sched.events"] = float64(tt.sched.Events)
	v["sched.ns_per_event"] = ratio(float64(tt.handoff.Nanoseconds()), float64(tt.sched.Events))
	v["sched.spawns"] = float64(tt.sched.Spawns)
	v["sched.steal_attempts"] = float64(tt.sched.StealAttempts)
	v["sched.steal_success"] = ratio(float64(tt.sched.Steals), float64(tt.sched.StealAttempts))
	v["sched.push_success"] = ratio(float64(tt.sched.Pushes), float64(tt.sched.PushAttempts))
	v["sched.mailbox_steals"] = float64(tt.sched.MailboxSteals)
	v["sched.bulk_steals"] = float64(tt.sched.BulkSteals)
	layers := tt.body + tt.access + tt.handoff + tt.checkout + tt.verify
	v["harness.other_s"] = (wall - layers).Seconds()
	v["trace_overhead"] = wall.Seconds() / ref.wall.Seconds()

	if err := b.storeLayer(ctx, plan, ref, o); err != nil {
		return nil, err
	}
	v["error_rate"] = o.errorRate()

	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d runs, untraced %.3fs, traced %.3fs: body %.3fs, cache %.3fs, handoff %.3fs, checkout %.3fs, verify %.3fs\n",
		b.w.name, len(plan), ref.wall.Seconds(), wall.Seconds(), tt.body.Seconds(), tt.access.Seconds(),
		tt.handoff.Seconds(), tt.checkout.Seconds(), tt.verify.Seconds())
	predict(b.w.name, v, wall)
	return o, nil
}

// predict reports on standard error whether the traced run confirms the
// layer each workload was chosen to stress. A refuted prediction is news,
// not an incorrect output: an optimisation may rightly move the balance.
func predict(workload string, v map[string]float64, wall time.Duration) {
	var claim string
	var holds bool
	switch workload {
	case "paper-grid":
		share := (v["workloads.body_s"] + v["cache.access_s"]) / wall.Seconds()
		claim = fmt.Sprintf("task bodies and memory model take the majority of traced time (%.0f%%)", 100*share)
		holds = share > 0.5
	case "spawn-tournament":
		share := v["sched.handoff_s"] / wall.Seconds()
		claim = fmt.Sprintf("no memory calls (%.0f) and the engine and handoff take the majority of traced time (%.0f%%)",
			v["cache.calls"], 100*share)
		holds = v["cache.calls"] == 0 && share > 0.5
	case "grid-service":
		claim = fmt.Sprintf("the warm phase simulates nothing (%.0f runs)", v["server.simulated"])
		holds = v["server.simulated"] == 0
	}
	verdict := "holds"
	if !holds {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s prediction %s: %s\n", workload, verdict, claim)
}

// storeLayer replays the reference pass's records through store.Put and
// store.Get on a fresh store, reopens the populated file, and serves the
// workload's warm request from it, scraping /statusz around the phase.
func (b *bench) storeLayer(ctx context.Context, plan []run, ref *passOut, o *outcome) error {
	v := o.values
	path := b.newFile()
	st, err := b.serveStore(path)
	if err != nil {
		return err
	}
	var puts, gets []float64
	for i, r := range plan {
		if !ref.ok[i] {
			continue
		}
		o.attempted++
		t := time.Now()
		if err := st.Put(r.key(), ref.results[i]); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	for i, r := range plan {
		if !ref.ok[i] {
			continue
		}
		o.attempted++
		t := time.Now()
		res, ok := st.Get(r.key())
		gets = append(gets, float64(time.Since(t))/float64(time.Microsecond))
		if !ok || res != ref.results[i] {
			o.failed++
			o.problem("store replay of %s read %+v (found %t), put %+v", r.id(), res, ok, ref.results[i])
		}
	}
	c := st.Counters()
	v["store.put_ms"] = median(puts)
	v["store.get_us"] = median(gets)
	v["store.puts"] = float64(c.Puts)
	v["store.hits"] = float64(c.Hits)

	if err := st.Close(); err != nil {
		return err
	}
	b.st = nil
	var opens []float64
	for i := 0; i < storeOpens; i++ {
		t := time.Now()
		if _, err := b.serveStore(path); err != nil {
			return err
		}
		opens = append(opens, time.Since(t).Seconds())
		v["store.records"] = float64(b.st.Counters().Records)
	}
	v["store.open_s"] = median(opens)

	want, err := b.warmWant(plan, ref)
	if err != nil {
		return err
	}
	s0, err := b.statusz(ctx)
	if err != nil {
		return err
	}
	var w warmOut
	if err := b.warmPhase(ctx, b.w.warm(b), want, time.Now().Add(b.seconds/10), p99Requests, &w); err != nil {
		return err
	}
	s1, err := b.statusz(ctx)
	if err != nil {
		return err
	}
	o.attempted += w.requests
	o.failed += w.failed
	if w.problem != "" {
		o.problem("warm request: %s", w.problem)
	}
	v["req_p99_ms"] = percentile(w.latencyMS, 0.99)
	v["server.first_row_ms"] = median(w.firstRowMS)
	v["server.bytes_per_row"] = ratio(float64(w.bytes), float64(w.rows))
	v["server.cache_hits"] = float64(s1.CacheHits - s0.CacheHits)
	v["server.simulated"] = float64(s1.Simulated - s0.Simulated)
	v["server.coalesced"] = float64(s1.Coalesced - s0.Coalesced)
	return nil
}

type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// cpuShares buckets a CPU profile's flat time by package with
// `go tool pprof -top`, as shares of all samples.
func cpuShares(prof string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", prof).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		shares[cpuBucket(f[5])] += flat.Seconds()
		total += flat.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: the profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// cpuBucket maps a profiled function name to its cpu_share bucket: the
// module package it belongs to, "runtime" for the Go runtime, or "other".
func cpuBucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, p := range cpuPackages {
			if p == name {
				return p
			}
		}
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
