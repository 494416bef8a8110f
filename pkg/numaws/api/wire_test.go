package api_test

import (
	"encoding/json"
	"testing"

	"repro/pkg/numaws/api"
)

// TestWireBytes pins the sweep service's JSON contract byte for byte: key
// order, tag names and which fields omitempty drops. Client and server
// share these types, so a round trip cannot catch a renamed tag; only
// literal bytes can. Every literal below was produced by the service's
// wire types before they moved into this package.
func TestWireBytes(t *testing.T) {
	no := false
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"grid request", api.GridRequest{
			Benches: []string{"heat", "fib"}, Topologies: []string{"paper-4x8", "2x4"},
			Policies: []string{"cilk", "numaws"}, Workers: []int{0, 4}, Seeds: []int64{1, 2},
			Scale: "small", Serial: true, Verify: &no,
		}, `{"benches":["heat","fib"],"topologies":["paper-4x8","2x4"],"policies":["cilk","numaws"],"workers":[0,4],"seeds":[1,2],"scale":"small","serial":true,"verify":false}`},
		{"empty grid request", api.GridRequest{}, `{}`},
		{"grid row", api.GridRow{
			Bench: "heat", Input: "2048x2048/64", Scale: "small", Topology: "2x4", Policy: "numaws",
			P: 8, Seed: 3, Serial: true, Cached: true, Time: 12345, Work: 9000, Sched: 2000, Idle: 1345,
		}, `{"bench":"heat","input":"2048x2048/64","scale":"small","topology":"2x4","policy":"numaws","p":8,"seed":3,"serial":true,"cached":true,"time":12345,"work":9000,"sched":2000,"idle":1345}`},
		{"failed grid row", api.GridRow{
			Bench: "heat", Input: "2048x2048/64", Scale: "small", Topology: "2x4", Policy: "cilk", P: 8, Seed: 3,
			Err: &api.GridRowError{Kind: "panic", Msg: "harness: run heat [cilk P=8 seed=3] failed (panic): boom"},
		}, `{"bench":"heat","input":"2048x2048/64","scale":"small","topology":"2x4","policy":"cilk","p":8,"seed":3,"cached":false,"time":0,"work":0,"sched":0,"idle":0,"err":{"kind":"panic","msg":"harness: run heat [cilk P=8 seed=3] failed (panic): boom"}}`},
		{"grid summary", api.GridSummary{Rows: 8, Cached: 3, Simulated: 4, Failed: 1},
			`{"rows":8,"cached":3,"simulated":4,"failed":1}`},
		{"tournament request", api.TournamentRequest{
			Benches: []string{"fib"}, Topologies: []string{"2x4"}, Policies: []string{"cilk", "numaws"},
			Seeds: []int64{1}, Scale: "full", Verify: &no,
		}, `{"benches":["fib"],"topologies":["2x4"],"policies":["cilk","numaws"],"seeds":[1],"scale":"full","verify":false}`},
		{"ranked tournament summary", api.TournamentSummary{
			Rows: 6, Cached: 2, Simulated: 4, Ranking: []api.TournamentRank{
				{Rank: 1, Policy: "numaws", Score: 1}, {Rank: 2, Policy: "cilk", Score: 1.0625}},
		}, `{"rows":6,"cached":2,"simulated":4,"failed":0,"ranking":[{"rank":1,"policy":"numaws","score":1},{"rank":2,"policy":"cilk","score":1.0625}]}`},
		{"unranked tournament summary", api.TournamentSummary{Rows: 6, Simulated: 5, Failed: 1},
			`{"rows":6,"cached":0,"simulated":5,"failed":1}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
