package harness

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/topology"
	"repro/pkg/numaws/api"
)

// memCache is an in-memory ResultCache recording its traffic. Pool
// workers call it concurrently, so every access holds the mutex.
type memCache struct {
	mu   sync.Mutex
	m    map[journal.Key]journal.Result
	puts int
	fail error
}

func newMemCache() *memCache { return &memCache{m: map[journal.Key]journal.Result{}} }

func (c *memCache) Get(k journal.Key) (journal.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	return r, ok
}

func (c *memCache) Put(k journal.Key, r journal.Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.m[k] = r
	c.puts++
	return nil
}

// TestJournalRecordsServeTheStore pins that a -journal file and a sweep
// service store read each other's records: every serial, T1 and TP run of
// a grid journaled by MeasureAll is a store hit through ExecuteThrough,
// with the totals the grid folded and no simulation.
func TestJournalRecordsServeTheStore(t *testing.T) {
	specs := []Spec{specByName(t, "fib"), specByName(t, "cilksort")}
	opt := Options{Topology: topology.TwoSocket(4), P: 4, Seed: 3, Seeds: 2, Verify: true, Jobs: 2}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	jw, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	opt.Journal = jw
	rows, err := MeasureAll(t.Context(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	opt.Journal = nil
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Any simulation now panics, and fresh inputs bypass the serial
	// reference memo: only the store can answer.
	faultinject.Arm(faultinject.Plan{Kind: faultinject.PanicAtTask})
	defer faultinject.Disarm()
	opt.FreshInputs = true
	for i, spec := range specs {
		row := rows[i]
		if row.Err != nil {
			t.Fatalf("%s: %v", spec.Name, row.Err)
		}
		hit := func(pol sched.Policy, o Options, serial bool) int64 {
			t.Helper()
			res, hit, err := ExecuteThrough(t.Context(), st, spec, pol, o, serial)
			if err != nil || !hit {
				t.Fatalf("%s %v serial=%v P=%d seed=%d: hit=%v err=%v", spec.Name, pol, serial, o.P, o.Seed, hit, err)
			}
			return res.Time
		}
		if ts := hit(nil, opt, true); ts != row.TS {
			t.Errorf("%s TS: store %d, grid %d", spec.Name, ts, row.TS)
		}
		for _, col := range []struct {
			pol sched.Policy
			pr  api.PlatformResult
		}{{sched.Cilk, row.Cilk}, {sched.NUMAWS, row.NUMAWS}} {
			o1 := opt
			o1.P = 1
			if t1 := hit(col.pol, o1, false); t1 != col.pr.T1 {
				t.Errorf("%s %v T1: store %d, grid %d", spec.Name, col.pol, t1, col.pr.T1)
			}
			var total int64
			for s := range opt.Seeds {
				o := opt
				o.Seed = opt.Seed + int64(s)
				total += hit(col.pol, o, false)
			}
			if tp := total / int64(opt.Seeds); tp != col.pr.TP {
				t.Errorf("%s %v TP: store %d, grid %d", spec.Name, col.pol, tp, col.pr.TP)
			}
		}
	}
	if c := st.Counters(); c.Puts != 0 || c.Misses != 0 || c.Hits != 14 {
		t.Errorf("store traffic: %+v, want 14 hits and nothing else", c)
	}
}

func TestExecuteThroughCachesRuns(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 4, Seed: 2, Verify: true}
	c := newMemCache()

	cold, hit, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first execution reported a cache hit")
	}
	if c.puts != 1 {
		t.Errorf("cold run recorded %d puts, want 1", c.puts)
	}
	if cold.Time <= 0 || cold.Work <= 0 {
		t.Errorf("implausible result: %+v", cold)
	}

	warm, hit, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("second execution missed the cache")
	}
	if warm != cold {
		t.Errorf("warm result diverged: %+v vs %+v", warm, cold)
	}
	if c.puts != 1 {
		t.Errorf("warm run re-put: %d puts", c.puts)
	}

	// A serial run of the same tuple is a distinct address.
	_, hit, err = ExecuteThrough(t.Context(), c, spec, nil, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("serial run hit the parallel run's record")
	}
	if c.puts != 2 {
		t.Errorf("after serial run: %d puts, want 2", c.puts)
	}
}

func TestExecuteThroughNilCacheAndPutError(t *testing.T) {
	spec := specByName(t, "fib")
	opt := Options{P: 2, Seed: 1}

	res, hit, err := ExecuteThrough(t.Context(), nil, spec, sched.NUMAWS, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit || res.Time <= 0 {
		t.Errorf("nil cache: hit=%v res=%+v", hit, res)
	}

	c := newMemCache()
	boom := errors.New("store: disk full")
	c.fail = boom
	if _, _, err := ExecuteThrough(t.Context(), c, spec, sched.NUMAWS, opt, false); !errors.Is(err, boom) {
		t.Errorf("Put failure must surface as a grid-level error, got %v", err)
	}
}
