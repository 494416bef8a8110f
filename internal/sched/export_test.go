package sched

import "repro/internal/topology"

// MaxInFlightCost bounds the cost of the one scheduling operation a worker
// may still have in flight when the root returns, under the default costs
// on top: a steal attempt at the longest hop distance that ends in a full
// round of PUSHBACK attempts. No frame is left at that point, so nothing
// costlier can be in flight.
func MaxInFlightCost(top *topology.Topology) int64 {
	c := (&Config{Topology: top, Workers: 1}).withDefaults()
	return c.StealAttemptCost + int64(top.MaxDistance())*c.StealHopCost +
		int64(c.PushThreshold+1)*c.PushAttemptCost
}
