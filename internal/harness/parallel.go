package harness

// This file decomposes the measurement protocols into independent jobs for
// the internal/exec worker pool. Each job is one full simulation with its
// own workload and runtime, executed through ExecuteThrough; jobs write
// their measured totals into pre-allocated slots, and the slots are folded
// into metrics rows in canonical spec/platform/seed order after the pool
// drains, so the aggregate is byte-identical to what the old serial loops
// produced. Completed jobs are additionally streamed through the emitter
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

// resultOf extracts a run report's replayable totals — exactly the fields
// the row fold consumes, and exactly what the journal persists, so a
// replayed run is indistinguishable from a simulated one.
func resultOf(rep *core.Report) journal.Result {
	res := journal.Result{Time: rep.Time}
	if rep.Sched != nil {
		res.Work = rep.Sched.WorkTotal()
		res.Sched = rep.Sched.SchedTotal()
		res.Idle = rep.Sched.IdleTotal()
	}
	return res
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

// gridCache is the ResultCache MeasureAll executes through: Get reads
// only Options.Resume and Put appends to Options.Journal, so the records
// a grid writes are never read back within that grid. A Put I/O failure
// is grid-level: the journal's whole point is that recorded rows are
// trustworthy, so a grid that cannot record stops.
type gridCache struct {
	resume map[journal.Key]journal.Result
	w      *journal.Writer
}

func (c gridCache) Get(k journal.Key) (journal.Result, bool) {
	res, ok := c.resume[k]
	return res, ok
}

func (c gridCache) Put(k journal.Key, res journal.Result) error {
	if c.w == nil {
		return nil
	}
	return c.w.Write(k, res)
}

// platformRuns holds one platform's measured totals for one spec: the
// one-worker run plus one P-worker run per scheduler seed.
type platformRuns struct {
	t1    journal.Result
	seeds []journal.Result
}

// specRuns holds every slot needed to assemble one api.Row, plus the
// spec's recorded failure (if any run of the spec failed).
type specRuns struct {
	ts       journal.Result
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
// pool: TS, then T1 and the per-seed TP runs on both platforms, each
// through cache. idx advances one slot per run and orders failures across
// specs the way the serial loops encountered them (TS first, then
// baseline T1, baseline seeds, policy T1, policy seeds). A run the cache
// already holds fills its slot without simulating and is emitted with
// RunMeta.Replayed set.
func (r *specRuns) submit(ctx context.Context, pool *exec.Pool, em *emitter, cache ResultCache, idx *int, spec Spec, opt Options) {
	// submit runs pol at o; a nil pol is the serial elision.
	submit := func(slot *journal.Result, pol sched.Policy, o Options, baseline bool) {
		meta := RunMeta{Bench: spec.Name, Policy: "serial", P: 1, Seed: o.Seed, Serial: pol == nil, Baseline: baseline}
		if pol != nil {
			meta.Policy, meta.P = pol.Name(), o.P
		}
		myIdx := *idx
		*idx++
		pool.Submit(ctx, myIdx, func() error {
			res, hit, err := ExecuteThrough(ctx, cache, spec, pol, o, meta.Serial)
			if err != nil {
				var re *RunError
				if errors.As(err, &re) && ctx.Err() == nil {
					r.recordFailure(myIdx, re)
					return nil // contained: the grid proceeds, the spec reports an error row
				}
				return err // grid-level: cancellation, journal I/O
			}
			*slot = res
			meta.Replayed, meta.Time = hit, res.Time
			em.emit(meta)
			return nil
		})
	}

	submit(&r.ts, nil, opt, false)
	for pi, pol := range []sched.Policy{sched.Cilk, opt.Policy} {
		// Column position, not policy identity: with Policy: sched.Cilk the
		// comparison degenerates to cilk-vs-cilk, and both columns must
		// still be populated.
		pr := &r.baseline
		if pi == 1 {
			pr = &r.policy
		}
		pr.seeds = make([]journal.Result, opt.Seeds)
		o1 := opt
		o1.P = 1
		submit(&pr.t1, pol, o1, pi == 0)
		for s := range opt.Seeds {
			o := opt
			o.Seed = opt.Seed + int64(s)
			submit(&pr.seeds[s], pol, o, pi == 0)
		}
	}
}

// result folds one platform's totals into the averaged PlatformResult.
func (p *platformRuns) result(seeds int) api.PlatformResult {
	var pr api.PlatformResult
	pr.T1 = p.t1.Time
	pr.W1 = p.t1.Work
	for _, rp := range p.seeds {
		pr.TP += rp.Time
		pr.WP += rp.Work
		pr.SP += rp.Sched
		pr.IP += rp.Idle
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
		TS:     r.ts.Time,
		Cilk:   r.baseline.result(opt.Seeds),
		NUMAWS: r.policy.result(opt.Seeds),
	}
}
