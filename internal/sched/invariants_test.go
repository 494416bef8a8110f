package sched_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/topology"
)

// TestEngineInvariantsEveryPolicy runs the spawn-heavy benchmarks under
// every registered policy on two machine shapes and checks the engine's
// accounting identities. The engine itself panics if a deque, mailbox or
// reserve still holds a frame at exit, so a completed run also proves
// those drained.
func TestEngineInvariantsEveryPolicy(t *testing.T) {
	specs, err := harness.SelectSpecs(harness.Specs(harness.ScaleSmall), []string{"fib", "nqueens"})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{"paper-4x8", "8x16"} {
		top, err := topology.Parse(shape)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range sched.Names() {
			pol, err := sched.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				t.Run(fmt.Sprintf("%s/%s/%s", shape, name, spec.Name), func(t *testing.T) {
					opt := harness.Options{Topology: top, Seed: 3, Verify: true}
					a, err := harness.RunOne(context.Background(), spec, pol, opt)
					if err != nil {
						t.Fatal(err)
					}
					checkStats(t, a.Sched, pol, top)
					b, err := harness.RunOne(context.Background(), spec, pol, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a.Sched, b.Sched) {
						t.Errorf("two runs with seed %d gave different stats:\n%+v\n%+v", opt.Seed, *a.Sched, *b.Sched)
					}
				})
			}
		}
	}
}

// checkStats checks the accounting identities of one run.
//
// Time: a worker's work, sched and idle tallies cover its whole timeline,
// so they sum to at least TP. They may exceed it by the one operation the
// worker still had in flight when the root returned (a failed steal
// attempt, or a mailbox visit that ended in pushes), which the engine
// charges in full.
//
// Steals: every steal attempt ends in exactly one outcome. A deque steal
// counts once in Steals per frame it takes (BulkSteals counts the frames
// beyond the first), a miss counts in FailedSteals, and a mailbox take
// counts in MailboxSteals. A mailbox visit that pushes the frame on counts
// in none of them, so the sum equals StealAttempts only for policies that
// never push.
func checkStats(t *testing.T, s *sched.Stats, pol sched.Policy, top *topology.Topology) {
	t.Helper()
	if len(s.PerWorker) != top.Cores() {
		t.Fatalf("stats cover %d workers, want %d", len(s.PerWorker), top.Cores())
	}
	slack := sched.MaxInFlightCost(top)
	for i, w := range s.PerWorker {
		if sum := w.Work + w.Sched + w.Idle; sum < s.Makespan || sum > s.Makespan+slack {
			t.Errorf("worker %d: work %d + sched %d + idle %d = %d, want within [TP, TP+%d] for TP = %d",
				i, w.Work, w.Sched, w.Idle, sum, slack, s.Makespan)
		}
	}
	outcomes := s.Steals - s.BulkSteals + s.FailedSteals + s.MailboxSteals
	if outcomes > s.StealAttempts || (!pol.Pushes() && outcomes != s.StealAttempts) {
		t.Errorf("steal outcomes %d (steals %d - bulk %d + failed %d + mailbox %d) vs attempts %d (pushes: %v)",
			outcomes, s.Steals, s.BulkSteals, s.FailedSteals, s.MailboxSteals, s.StealAttempts, pol.Pushes())
	}
	var byHop int64
	for _, n := range s.StealsByHop {
		byHop += n
	}
	if byHop != s.Steals {
		t.Errorf("sum(StealsByHop) = %d, want Steals = %d", byHop, s.Steals)
	}
	if s.Spawns == 0 || s.Steals == 0 {
		t.Errorf("run spawned %d and stole %d times; the benchmark exercised nothing", s.Spawns, s.Steals)
	}
}
