package api

// The sweep service's wire contract: the JSON bodies of POST /v1/grid and
// POST /v1/tournament and the NDJSON rows and trailers they stream back.
// The server encodes and decodes these types and the facade's streaming
// clients decode them, so the JSON tags below are the whole contract.

// The value each experiment axis takes when a request (or a CLI flag, or a
// facade option) leaves it empty.
const (
	DefaultTopology = "paper-4x8" // the paper's 4-socket x 8-core machine
	DefaultPolicy   = "numaws"    // the paper's scheduler
	DefaultWorkers  = 0           // each machine's whole core set
	DefaultSeed     = 1           // seed 0 is the engine's reserved "default"
	DefaultScale    = "full"      // the paper's input sizes
)

// GridRequest asks a sweep service for the cross product of the given
// experiment axes — the same axes the CLI takes. Empty axes take the
// defaults above.
type GridRequest struct {
	// Benches restricts the grid to the named benchmarks, in the given
	// order; empty means every registered benchmark.
	Benches []string `json:"benches,omitempty"`
	// Topologies lists preset names or SOCKETSxCORES shapes; empty means
	// [DefaultTopology].
	Topologies []string `json:"topologies,omitempty"`
	// Policies lists registered policy names; empty means
	// [DefaultPolicy].
	Policies []string `json:"policies,omitempty"`
	// Workers lists simulated worker counts; 0 means the whole machine of
	// each topology. Empty means [DefaultWorkers].
	Workers []int `json:"workers,omitempty"`
	// Seeds lists scheduler seeds; 0 is rejected (the engine reserves it
	// as "default"). Empty means [DefaultSeed].
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale is "small" or "full"; empty means DefaultScale.
	Scale string `json:"scale,omitempty"`
	// Serial adds one serial-elision (TS) row per benchmark × topology.
	Serial bool `json:"serial,omitempty"`
	// Verify controls result verification; nil means true.
	Verify *bool `json:"verify,omitempty"`
}

// GridRow is one completed run streamed by the service, in completion
// order (not grid order — clients sort by the identity fields if they
// need canonical order). Because every simulation is deterministic in the
// row's identity fields, a Cached row is byte-identical to a freshly
// simulated one.
type GridRow struct {
	Bench    string `json:"bench"`
	Input    string `json:"input"`
	Scale    string `json:"scale"`
	Topology string `json:"topology"` // the requested spec string
	Policy   string `json:"policy"`   // "serial" for serial-elision rows
	P        int    `json:"p"`
	Seed     int64  `json:"seed"`
	Serial   bool   `json:"serial,omitempty"`
	// Cached marks a row the service served without simulating for this
	// request: a store hit, or a coalesced ride on a concurrent client's
	// identical in-flight run.
	Cached bool  `json:"cached"`
	Time   int64 `json:"time"`
	Work   int64 `json:"work"`
	Sched  int64 `json:"sched"`
	Idle   int64 `json:"idle"`
	// Err marks a contained run failure (panic, verification mismatch,
	// deadline); the measurement fields are zero and the rest of the grid
	// completed normally.
	Err *GridRowError `json:"err,omitempty"`
}

// GridRowError is a contained run failure on the wire.
type GridRowError struct {
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// GridSummary trails a grid stream: how the rows broke down. Simulated
// counts the runs this request actually executed; on a fully warm query
// it is zero. A stream that ends without a summary was truncated: the
// grid aborted (cancellation, store I/O) mid-stream.
type GridSummary struct {
	Rows      int `json:"rows"`
	Cached    int `json:"cached"`
	Simulated int `json:"simulated"`
	Failed    int `json:"failed"`
}

// TournamentRequest asks a sweep service to rank scheduling policies over
// a benchmark × topology grid. Every cell runs at its machine's full core
// count — a fixed worker axis would bias the ranking toward machines it
// happens to fit — so the request has no worker axis.
type TournamentRequest struct {
	// Benches restricts the grid to the named benchmarks, in the given
	// order; empty means every registered benchmark.
	Benches []string `json:"benches,omitempty"`
	// Topologies lists preset names or SOCKETSxCORES shapes; empty means
	// [DefaultTopology].
	Topologies []string `json:"topologies,omitempty"`
	// Policies lists the contestants; empty means every registered policy.
	Policies []string `json:"policies,omitempty"`
	// Seeds lists scheduler seeds to average each cell over; empty means
	// [DefaultSeed].
	Seeds []int64 `json:"seeds,omitempty"`
	// Scale is "small" or "full"; empty means DefaultScale.
	Scale string `json:"scale,omitempty"`
	// Verify controls result verification; nil means true.
	Verify *bool `json:"verify,omitempty"`
}

// TournamentRank is one ranked policy of a tournament summary.
type TournamentRank struct {
	Rank   int     `json:"rank"`
	Policy string  `json:"policy"`
	Score  float64 `json:"score"` // geomean of per-cell TP / cell-best TP
}

// TournamentSummary trails a tournament stream: the grid counts plus the
// deterministic ranking. Ranking is omitted when any cell failed — a
// ranking over missing cells would compare incomparables — so a summary
// with Failed > 0 is an unranked tournament.
type TournamentSummary struct {
	Rows      int              `json:"rows"`
	Cached    int              `json:"cached"`
	Simulated int              `json:"simulated"`
	Failed    int              `json:"failed"`
	Ranking   []TournamentRank `json:"ranking,omitempty"`
}
