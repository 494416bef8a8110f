package harness

// This file decomposes the measurement protocols into independent jobs for
// the internal/exec worker pool. Each job is one full simulation with its
// own workload and runtime; jobs write their measured totals into
// pre-allocated slots, and the slots are folded into metrics rows in
// canonical spec/platform/seed order after the pool drains, so the
// aggregate is byte-identical to what the old serial loops produced.
// Completed jobs are additionally streamed through the emitter
// (Options.OnRun) in completion order, which is what Session.Each builds
// on.
//
// Failure containment happens at this layer's seam: a job whose run comes
// back as a *RunError records the failure on its spec (lowest submission
// index wins, so the reported failure is deterministic for a deterministic
// fault) and returns nil to the pool — the grid proceeds, and the spec
// folds into an error row. Only grid-level errors (cancellation, journal
// I/O) propagate into the pool and abort the sweep.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/pkg/numaws/api"
)

// runResult is one completed run's measured totals — exactly the fields
// the row fold consumes, and exactly what the journal persists, so a
// replayed run is indistinguishable from a simulated one.
type runResult struct {
	time  int64
	work  int64
	sched int64
	idle  int64
}

// resultOf extracts the fold inputs from a run report.
func resultOf(rep *core.Report) runResult {
	rr := runResult{time: rep.Time}
	if rep.Sched != nil {
		rr.work = rep.Sched.WorkTotal()
		rr.sched = rep.Sched.SchedTotal()
		rr.idle = rep.Sched.IdleTotal()
	}
	return rr
}

// topologyKey is the journal's compact machine signature: the shape for
// readability plus a content hash of the full rendering (which includes
// the distance matrix), so two same-shape machines with different
// distance structure never share journal records.
func topologyKey(top *topology.Topology) string {
	h := fnv.New64a()
	io.WriteString(h, top.String())
	return fmt.Sprintf("%dx%d-%016x", top.Sockets(), top.CoresPerSocket(), h.Sum64())
}

// journaler adapts Options.Journal/Options.Resume for the submission loop.
// A nil journaler (no journal, no resume) is valid and inert.
type journaler struct {
	w      *journal.Writer
	resume map[journal.Key]journal.Result
	top    string
}

func newJournaler(opt Options) *journaler {
	if opt.Journal == nil && opt.Resume == nil {
		return nil
	}
	return &journaler{w: opt.Journal, resume: opt.Resume, top: topologyKey(opt.Topology)}
}

// key builds the run's full journal identity. Baseline is deliberately
// absent: the baseline and policy columns of a cilk-vs-cilk comparison
// measure the identical simulation, and the journal dedups by content.
func (j *journaler) key(spec Spec, meta RunMeta, opt Options) journal.Key {
	return journal.Key{
		Gen: spec.Generation(), Bench: spec.Name, Input: spec.Input,
		Scale: int(spec.SpecScale()), Topology: j.top,
		Policy: meta.Policy, P: meta.P, Seed: meta.Seed,
		Serial: meta.Serial, Verify: opt.Verify,
	}
}

// lookup reports the journaled result for a key, if resuming and present.
func (j *journaler) lookup(k journal.Key) (runResult, bool) {
	if j == nil || j.resume == nil {
		return runResult{}, false
	}
	res, ok := j.resume[k]
	if !ok {
		return runResult{}, false
	}
	return runResult{time: res.Time, work: res.Work, sched: res.Sched, idle: res.Idle}, true
}

// append durably journals one completed run. An I/O failure here is a
// grid-level error: the journal's whole point is that recorded rows are
// trustworthy, so a grid that cannot record stops.
func (j *journaler) append(k journal.Key, rr runResult) error {
	if j == nil || j.w == nil {
		return nil
	}
	return j.w.Write(k, journal.Result{Time: rr.time, Work: rr.work, Sched: rr.sched, Idle: rr.idle})
}

// platformRuns holds one platform's measured totals for one spec: the
// one-worker run plus one P-worker run per scheduler seed.
type platformRuns struct {
	t1    runResult
	seeds []runResult
}

// specRuns holds every slot needed to assemble one api.Row, plus the
// spec's recorded failure (if any run of the spec failed).
type specRuns struct {
	ts       runResult
	baseline platformRuns // sched.Cilk, the classic work-stealing column
	policy   platformRuns // opt.Policy, the NUMA-aware column

	mu      sync.Mutex
	fail    *RunError
	failIdx int
}

// recordFailure keeps the contained failure with the lowest submission
// index — the one the old serial loops would have hit first — so the
// error row reports deterministically no matter how pool workers raced.
func (r *specRuns) recordFailure(idx int, re *RunError) {
	r.mu.Lock()
	if r.fail == nil || idx < r.failIdx {
		r.fail, r.failIdx = re, idx
	}
	r.mu.Unlock()
}

// submit schedules the full Fig. 7/Fig. 8 protocol for one spec on the
// pool: TS, then T1 and the per-seed TP runs on both platforms. idx
// advances one slot per run (replayed or simulated) and orders failures
// across specs the way the serial loops encountered them (TS first, then
// baseline T1, baseline seeds, policy T1, policy seeds). Runs found in
// the resume journal fill their slot immediately — emitted with
// RunMeta.Replayed set — and submit no job.
func (r *specRuns) submit(ctx context.Context, pool *exec.Pool, em *emitter, jr *journaler, idx *int, spec Spec, opt Options) {
	submit := func(slot *runResult, meta RunMeta, run func() (*core.Report, error)) {
		myIdx := *idx
		*idx++
		key := journal.Key{}
		if jr != nil {
			key = jr.key(spec, meta, opt)
			if rr, ok := jr.lookup(key); ok {
				*slot = rr
				meta.Replayed = true
				meta.Time = rr.time
				em.emit(meta)
				return
			}
		}
		pool.Submit(ctx, myIdx, func() error {
			rep, err := run()
			if err != nil {
				var re *RunError
				if errors.As(err, &re) && ctx.Err() == nil {
					r.recordFailure(myIdx, re)
					return nil // contained: the grid proceeds, the spec reports an error row
				}
				return err // grid-level: cancellation (or a non-run error) aborts the sweep
			}
			rr := resultOf(rep)
			if err := jr.append(key, rr); err != nil {
				return err
			}
			*slot = rr
			meta.Time = rr.time
			em.emit(meta)
			return nil
		})
	}

	submit(&r.ts, RunMeta{Bench: spec.Name, Policy: "serial", P: 1, Seed: opt.Seed, Serial: true},
		func() (*core.Report, error) { return RunSerial(ctx, spec, opt) })
	for pi, pol := range []sched.Policy{sched.Cilk, opt.Policy} {
		// Column position, not policy identity: with Policy: sched.Cilk the
		// comparison degenerates to cilk-vs-cilk, and both columns must
		// still be populated.
		pr := &r.baseline
		if pi == 1 {
			pr = &r.policy
		}
		pr.seeds = make([]runResult, opt.Seeds)
		pol, baseline := pol, pi == 0
		o1 := opt
		o1.P = 1
		submit(&pr.t1, RunMeta{Bench: spec.Name, Policy: pol.Name(), P: 1, Seed: opt.Seed, Baseline: baseline},
			func() (*core.Report, error) { return RunOne(ctx, spec, pol, o1) })
		for s := 0; s < opt.Seeds; s++ {
			o := opt
			o.Seed = opt.Seed + int64(s)
			submit(&pr.seeds[s], RunMeta{Bench: spec.Name, Policy: pol.Name(), P: opt.P, Seed: o.Seed, Baseline: baseline},
				func() (*core.Report, error) { return RunOne(ctx, spec, pol, o) })
		}
	}
}

// result folds one platform's totals into the averaged PlatformResult.
func (p *platformRuns) result(seeds int) api.PlatformResult {
	var pr api.PlatformResult
	pr.T1 = p.t1.time
	pr.W1 = p.t1.work
	for _, rp := range p.seeds {
		pr.TP += rp.time
		pr.WP += rp.work
		pr.SP += rp.sched
		pr.IP += rp.idle
	}
	n := int64(seeds)
	pr.TP /= n
	pr.WP /= n
	pr.SP /= n
	pr.IP /= n
	return pr
}

// row assembles the result row once every job has completed: the folded
// measurements, or an error row when any of the spec's runs failed.
func (r *specRuns) row(spec Spec, opt Options) api.Row {
	if r.fail != nil {
		return api.Row{
			Name:  spec.Name,
			Input: spec.Input,
			P:     opt.P,
			Err:   r.fail.RowError(),
		}
	}
	return api.Row{
		Name:   spec.Name,
		Input:  spec.Input,
		P:      opt.P,
		TS:     r.ts.time,
		Cilk:   r.baseline.result(opt.Seeds),
		NUMAWS: r.policy.result(opt.Seeds),
	}
}
