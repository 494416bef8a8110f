package main

// The client side of the sweep service: POST /v1/grid, read the NDJSON
// stream, and check every row; plus the warm phase's closed-loop clients.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/journal"
)

// p99Requests is the traced warm slice's minimum length: its 99th
// percentile then has ten samples beyond it. req_p99_ms is report-only:
// on a shared 2-vCPU VM, host contention moved it by up to 0.9 of its
// median (interquartile range over ten runs), beyond any usable bound.
const p99Requests = 1000

// gridRow, gridSummary and gridEvent decode the service's NDJSON wire
// format.
type gridRow struct {
	Bench    string `json:"bench"`
	Topology string `json:"topology"`
	Policy   string `json:"policy"`
	P        int    `json:"p"`
	Seed     int64  `json:"seed"`
	Cached   bool   `json:"cached"`
	Time     int64  `json:"time"`
	Work     int64  `json:"work"`
	Sched    int64  `json:"sched"`
	Idle     int64  `json:"idle"`
	Err      *struct {
		Kind string `json:"kind"`
		Msg  string `json:"msg"`
	} `json:"err"`
}

func (r gridRow) id() string { return rowID(r.Bench, r.Topology, r.Policy, r.P, r.Seed) }

func (r gridRow) result() journal.Result {
	return journal.Result{Time: r.Time, Work: r.Work, Sched: r.Sched, Idle: r.Idle}
}

type gridSummary struct {
	Rows      int `json:"rows"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	Failed    int `json:"failed"`
}

type gridEvent struct {
	Row  *gridRow     `json:"row"`
	Done *gridSummary `json:"done"`
}

// gridResponse is one POST /v1/grid as the client saw it.
type gridResponse struct {
	err      error
	status   int
	rows     []gridRow
	done     *gridSummary
	bytes    int
	firstRow time.Duration
	latency  time.Duration
}

// post sends one grid request and reads its whole stream; transport and
// decoding failures are recorded on the response, not returned, because
// they are failed operations of the measured system.
func (b *bench) post(ctx context.Context, body []byte) *gridResponse {
	out := &gridResponse{}
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.http.URL+"/v1/grid", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	resp, err := b.client.Do(hreq)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.bytes == 0 {
				out.firstRow = time.Since(t0)
			}
			out.bytes += len(line)
			var ev gridEvent
			if derr := json.Unmarshal(line, &ev); derr != nil {
				out.err = fmt.Errorf("undecodable line %q: %v", line, derr)
				break
			}
			switch {
			case ev.Row != nil:
				out.rows = append(out.rows, *ev.Row)
			case ev.Done != nil:
				out.done = ev.Done
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			break
		}
	}
	out.latency = time.Since(t0)
	return out
}

// check returns "" for a complete, successful response with exactly the
// want rows, or what is wrong with it. With cached set, every row must
// have been served from the store and carry the recorded values.
func (r *gridResponse) check(want map[string]journal.Result, cached bool) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.done == nil:
		return "stream ended without its done trailer"
	case len(r.rows) != len(want) || r.done.Rows != len(want):
		return fmt.Sprintf("%d rows streamed, %d summarized, %d expected", len(r.rows), r.done.Rows, len(want))
	case r.done.Failed != 0:
		return fmt.Sprintf("%d failed rows", r.done.Failed)
	case cached && (r.done.Cached != len(want) || r.done.Simulated != 0):
		return fmt.Sprintf("warm grid simulated %d rows", r.done.Simulated)
	}
	seen := make(map[string]bool, len(r.rows))
	for _, row := range r.rows {
		id := row.id()
		rec, ok := want[id]
		switch {
		case row.Err != nil:
			return fmt.Sprintf("row %s failed: %s: %s", id, row.Err.Kind, row.Err.Msg)
		case !ok || seen[id]:
			return fmt.Sprintf("unexpected or repeated row %s", id)
		case cached && !row.Cached:
			return fmt.Sprintf("warm row %s was not served from the store", id)
		case cached && row.result() != rec:
			return fmt.Sprintf("warm row %s reads %+v, recorded %+v", id, row.result(), rec)
		}
		seen[id] = true
	}
	return ""
}

// warmOut is the warm phase's measurements.
type warmOut struct {
	requests, failed int
	rows, bytes      int
	wall             time.Duration
	latencyMS        []float64
	firstRowMS       []float64
	problem          string // the first failed request's fault
}

// warmPhase re-POSTs req from one closed-loop client until the deadline
// has passed and at least minReqs requests were sent, adding to out. want
// holds the recorded result of every row the request expands to.
//
// One client keeps the phase steady on a 2-vCPU host: with two, the
// clients, the handlers and the collector contend for both CPUs, and
// rows/s moved by a fifth between runs.
func (b *bench) warmPhase(ctx context.Context, req gridRequest, want map[string]journal.Result, until time.Time, minReqs int, out *warmOut) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for n := 0; time.Now().Before(until) || n < minReqs; n++ {
		r := b.post(ctx, body)
		out.requests++
		out.latencyMS = append(out.latencyMS, ms(r.latency))
		out.firstRowMS = append(out.firstRowMS, ms(r.firstRow))
		out.rows += len(r.rows)
		out.bytes += r.bytes
		if bad := r.check(want, true); bad != "" {
			out.failed++
			if out.problem == "" {
				out.problem = bad
			}
		}
	}
	out.wall += time.Since(t0)
	return nil
}

// statusz is the subset of GET /statusz the benchmark reads.
type statusz struct {
	CacheHits uint64 `json:"cache_hits"`
	Simulated uint64 `json:"simulated"`
	Coalesced uint64 `json:"coalesced"`
}

func (b *bench) statusz(ctx context.Context) (statusz, error) {
	var st statusz
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.http.URL+"/statusz", nil)
	if err != nil {
		return st, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statusz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
