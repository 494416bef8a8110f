package numaws

// The sweep service's public wire types and streaming clients. The types
// are aliases of the public leaf package api, which the server encodes
// and decodes directly, so client and server share one definition of the
// JSON contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/pkg/numaws/api"
)

// The wire types; see api for their fields and JSON tags.
type (
	// GridRequest asks a sweep service for the cross product of the given
	// experiment axes — the same axes the CLI takes.
	GridRequest = api.GridRequest
	// GridRow is one completed run streamed by the service.
	GridRow = api.GridRow
	// GridRowError is a contained run failure on the wire.
	GridRowError = api.GridRowError
	// GridSummary trails a grid stream: how the rows broke down.
	GridSummary = api.GridSummary
	// TournamentRequest asks a sweep service to rank scheduling policies
	// over a benchmark × topology grid.
	TournamentRequest = api.TournamentRequest
	// TournamentRank is one ranked policy of a tournament summary.
	TournamentRank = api.TournamentRank
	// TournamentSummary trails a tournament stream: the grid counts plus
	// the ranking, which is omitted when any cell failed.
	TournamentSummary = api.TournamentSummary
)

// QueryTournament streams a tournament request against a running sweep
// service, invoking onRow (which may be nil) for each run as the service
// completes it, and returns the trailing summary with the ranking. The
// rows are the same shape grid streams use. A stream that ends without a
// summary is an error, exactly as in QueryGrid.
func QueryTournament(ctx context.Context, server string, req TournamentRequest, onRow func(GridRow)) (TournamentSummary, error) {
	return query[TournamentSummary](ctx, server, "/v1/tournament", "tournament", "run", req, onRow)
}

// QueryGrid streams a grid request against a running sweep service
// (`numaws serve`) at the given base URL, invoking onRow (which may be
// nil) for each row as the service completes it, and returns the trailing
// summary. A stream that ends without a summary — the service aborted the
// grid mid-stream or died — is an error; rows already delivered through
// onRow remain valid, since each stands alone. Cancelling ctx abandons
// the stream; the service cancels only this client's uncached work.
func QueryGrid(ctx context.Context, server string, req GridRequest, onRow func(GridRow)) (GridSummary, error) {
	return query[GridSummary](ctx, server, "/v1/grid", "query", "grid", req, onRow)
}

// query POSTs req to path on the server and decodes the NDJSON stream: each row goes to
// onRow, and the done trailer, of type S, ends the stream. op prefixes
// every error; what names the unit the server aborted when the stream
// ends without a trailer.
func query[S any](ctx context.Context, server, path, op, what string, req any, onRow func(GridRow)) (S, error) {
	var zero S
	body, err := json.Marshal(req)
	if err != nil {
		return zero, fmt.Errorf("numaws: %s: %w", op, err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(server, "/")+path, bytes.NewReader(body))
	if err != nil {
		return zero, fmt.Errorf("numaws: %s: %w", op, err)
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		return zero, fmt.Errorf("numaws: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return zero, fmt.Errorf("numaws: %s: server said %s: %s",
			op, resp.Status, strings.TrimSpace(string(msg)))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Row  *GridRow `json:"row"`
			Done *S       `json:"done"`
		}
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return zero, fmt.Errorf("numaws: %s: stream ended without its summary (the server aborted the %s)", op, what)
			}
			return zero, fmt.Errorf("numaws: %s: %w", op, err)
		}
		if ev.Row != nil && onRow != nil {
			onRow(*ev.Row)
		}
		if ev.Done != nil {
			return *ev.Done, nil
		}
	}
}
