package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/journal"
)

// runTimed is the end-to-end run: cycles of one protocol pass and one
// warm slice until the window is spent, so that both kinds of sample
// spread over the whole window and its drifts in host speed.
func (b *bench) runTimed(ctx context.Context) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	plan := b.w.plan(b)
	req := b.w.warm(b)
	start := time.Now()
	var (
		passes       []*passOut
		rates, peaks []float64
		warm         warmOut
		want         map[string]journal.Result
		cycle        time.Duration
	)
	for len(passes) < 2 || time.Since(start)+cycle/2 < b.seconds {
		c0 := time.Now()
		p, err := b.pass(ctx, plan, o)
		if err != nil {
			return nil, err
		}
		b.checkCold(plan, p, o)
		if len(passes) > 0 {
			samePass(passes[0], p, plan, o)
		}
		passes = append(passes, p)
		rates = append(rates, float64(len(plan))/p.wall.Seconds())

		want, err = b.warmWant(plan, p)
		if err != nil {
			return nil, err
		}
		if _, err := b.serveStore(p.path); err != nil {
			return nil, err
		}
		collect()
		slice := time.Duration(float64(p.wall) * b.w.warmPerPass)
		if err := b.warmPhase(ctx, req, want, time.Now().Add(slice), 0, &warm); err != nil {
			return nil, err
		}
		peaks = append(peaks, max(p.peakMB, b.mem.take()))
		cycle = time.Since(c0)
	}
	o.attempted += warm.requests
	o.failed += warm.failed
	if warm.problem != "" {
		o.problem("warm request: %s", warm.problem)
	}
	tp, infl, err := numawsSummary(plan, passes[0])
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = median(seconds(b.setups))
	o.values["runs_per_s"] = median(rates)
	o.values["rows_per_s"] = float64(warm.rows) / warm.wall.Seconds()
	o.values["req_p50_ms"] = median(warm.latencyMS)
	o.values["max_rss_mb"] = median(peaks)
	o.values["numaws_tp_cycles"] = tp
	o.values["numaws_work_inflation"] = infl
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes of %d runs, runs/s %s, peak MB %s; %d warm requests; setup s %s\n",
		b.w.name, b.seed, len(passes), len(plan), fmtList(rates), fmtList(peaks), warm.requests, fmtList(seconds(b.setups)))
	return o, nil
}

// checkCold compares the rows a cold /v1/grid streamed with the records
// the store holds for them.
func (b *bench) checkCold(plan []run, p *passOut, o *outcome) {
	if b.cold == nil {
		return
	}
	byID := make(map[string]journal.Result, len(plan))
	for i, r := range plan {
		byID[r.id()] = p.results[i]
	}
	for _, row := range b.cold {
		if rec, ok := byID[row.id()]; ok && rec != row.result() {
			o.problem("cold row %s streamed %+v, stored %+v", row.id(), row.result(), rec)
			return
		}
	}
	b.cold = nil
}

// warmWant expands the workload's warm request to its row ids and takes
// each row's recorded result from the pass; every row must be in the plan.
func (b *bench) warmWant(plan []run, p *passOut) (map[string]journal.Result, error) {
	byID := make(map[string]int, len(plan))
	for i, r := range plan {
		byID[r.id()] = i
	}
	req := b.w.warm(b)
	want := map[string]journal.Result{}
	add := func(id string) error {
		i, ok := byID[id]
		if !ok {
			return fmt.Errorf("warm request row %s is not in the %s plan", id, b.w.name)
		}
		want[id] = p.results[i]
		return nil
	}
	for _, bench := range req.Benches {
		for _, m := range b.machines {
			if req.Serial {
				if err := add(rowID(bench, m.Name, "serial", 1, req.Seeds[0])); err != nil {
					return nil, err
				}
			}
			for _, pol := range req.Policies {
				for _, w := range req.Workers {
					if w == 0 {
						w = m.Top.Cores()
					}
					for _, sd := range req.Seeds {
						if err := add(rowID(bench, m.Name, pol, w, sd)); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return want, nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}
