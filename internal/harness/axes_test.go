package harness

import (
	"reflect"
	"strings"
	"testing"
)

// TestAxisResolvers pins one case per axis rule: each resolver rejects
// unknown and repeated names, worker counts outside the machine, seed 0
// and unknown scales, and resolves good input in the order given.
func TestAxisResolvers(t *testing.T) {
	all := Specs(ScaleSmall)
	ms, err := Machines([]string{"2x4"})
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"unknown bench", second(SelectSpecs(all, []string{"fib", "nope"})), `no benchmark named "nope" (want `},
		{"duplicate bench", second(SelectSpecs(all, []string{"fib", "heat", "fib"})), `duplicate benches entry "fib": named twice`},
		{"unknown topology", second(Machines([]string{"2x4", "weird"})), "unknown topology"},
		{"duplicate topology", second(Machines([]string{"2x4", "2x4"})), `duplicate topologies entry "2x4": named twice`},
		{"oversized topology", second(Machines([]string{"100000x1"})), "exceeds the limit"},
		{"no topology", second(Machines(nil)), "no topologies given"},
		{"unknown policy", second(Policies([]string{"cilk", "fifo?"})), "unknown policy"},
		{"duplicate policy", second(Policies([]string{"cilk", "numaws", "cilk"})), `duplicate policies entry "cilk": named twice`},
		{"negative workers", second(Workers(-1, m)), "negative worker count -1"},
		{"too many workers", second(Workers(9, m)), "9 workers out of range [1,8] for topology 2x4"},
		{"seed 0", CheckSeed(0), "seed 0 is reserved"},
		{"unknown scale", second(ParseScale("medium")), `unknown scale "medium" (want small or full)`},
	} {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, tc.err, tc.want)
		}
	}

	specs, err := SelectSpecs(all, []string{"heat", "fib"})
	if err != nil || len(specs) != 2 || specs[0].Name != "heat" || specs[1].Name != "fib" {
		t.Errorf("SelectSpecs(heat, fib) = %v, %v; want heat then fib", specs, err)
	}
	if specs, err := SelectSpecs(all, nil); err != nil || len(specs) != len(all) {
		t.Errorf("SelectSpecs(nil) = %d specs, %v; want the whole suite", len(specs), err)
	}
	pols, err := Policies([]string{"numaws", "cilk"})
	if err != nil || pols[0].Name() != "numaws" || pols[1].Name() != "cilk" {
		t.Errorf("Policies(numaws, cilk) = %v, %v", pols, err)
	}
	for _, tc := range []struct{ in, want int }{{0, 8}, {1, 1}, {8, 8}} {
		if got, err := Workers(tc.in, m); err != nil || got != tc.want {
			t.Errorf("Workers(%d) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	if err := CheckSeed(-3); err != nil {
		t.Errorf("CheckSeed(-3) = %v; only 0 is reserved", err)
	}
	for _, name := range ScaleNames() {
		if _, err := ParseScale(name); err != nil {
			t.Errorf("ParseScale(%q) = %v; ScaleNames lists it", name, err)
		}
	}
	if got := ScaleNames(); !reflect.DeepEqual(got, []string{"small", "full"}) {
		t.Errorf("ScaleNames() = %v", got)
	}
}

// second returns the error of a two-result call.
func second[T any](_ T, err error) error { return err }
