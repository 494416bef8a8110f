package layout

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// fig6a is the exact 8x8 cell Z-Morton grid from the paper's Fig. 6(a).
const fig6a = ` 0  1  4  5 16 17 20 21
 2  3  6  7 18 19 22 23
 8  9 12 13 24 25 28 29
10 11 14 15 26 27 30 31
32 33 36 37 48 49 52 53
34 35 38 39 50 51 54 55
40 41 44 45 56 57 60 61
42 43 46 47 58 59 62 63
`

// fig6b is the exact 8x8 blocked Z-Morton grid (block 4) from Fig. 6(b).
const fig6b = ` 0  1  2  3 16 17 18 19
 4  5  6  7 20 21 22 23
 8  9 10 11 24 25 26 27
12 13 14 15 28 29 30 31
32 33 34 35 48 49 50 51
36 37 38 39 52 53 54 55
40 41 42 43 56 57 58 59
44 45 46 47 60 61 62 63
`

func TestFig6aGolden(t *testing.T) {
	if got := Grid(8, Morton, 0); got != fig6a {
		t.Errorf("Fig. 6(a) mismatch:\ngot:\n%s\nwant:\n%s", got, fig6a)
	}
}

func TestFig6bGolden(t *testing.T) {
	if got := Grid(8, BlockedMorton, 4); got != fig6b {
		t.Errorf("Fig. 6(b) mismatch:\ngot:\n%s\nwant:\n%s", got, fig6b)
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(r16, c16 uint16) bool {
		r, c := int(r16), int(c16)
		rr, cc := MortonDecode(MortonIndex(r, c))
		return rr == r && cc == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonIsBijectionOnGrid(t *testing.T) {
	const n = 64
	seen := make([]bool, n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := MortonIndex(r, c)
			if i < 0 || i >= n*n {
				t.Fatalf("MortonIndex(%d,%d) = %d out of range", r, c, i)
			}
			if seen[i] {
				t.Fatalf("MortonIndex(%d,%d) = %d collides", r, c, i)
			}
			seen[i] = true
		}
	}
}

// Property: all three layouts are bijections over the grid.
func TestLayoutBijectionProperty(t *testing.T) {
	a := memory.NewAllocator(4)
	for _, tc := range []struct {
		kind  Kind
		block int
	}{{RowMajor, 0}, {Morton, 0}, {BlockedMorton, 4}} {
		m := NewMatrix(a, tc.kind.String(), 16, tc.kind, tc.block, memory.Interleave{})
		seen := make([]bool, 16*16)
		for r := 0; r < 16; r++ {
			for c := 0; c < 16; c++ {
				i := m.Index(r, c)
				if i < 0 || i >= len(seen) || seen[i] {
					t.Fatalf("%v: Index(%d,%d) = %d invalid or duplicate", tc.kind, r, c, i)
				}
				seen[i] = true
			}
		}
	}
}

func TestBlockedMortonBlockContiguity(t *testing.T) {
	a := memory.NewAllocator(4)
	m := NewMatrix(a, "m", 32, BlockedMorton, 8, memory.Interleave{})
	// Every cell of a block must fall inside the block's span.
	for br := 0; br < 4; br++ {
		for bc := 0; bc < 4; bc++ {
			off, size := m.BlockSpan(br*8, bc*8)
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					idx := int64(m.Index(br*8+r, bc*8+c)) * 8
					if idx < off || idx >= off+size {
						t.Fatalf("cell (%d,%d) of block (%d,%d) at byte %d outside span [%d,%d)",
							r, c, br, bc, idx, off, off+size)
					}
				}
			}
		}
	}
}

func TestQuadrantsAreContiguousQuarters(t *testing.T) {
	// In Z order the four quadrants occupy the four contiguous quarters of
	// the array — the property that page binding relies on.
	a := memory.NewAllocator(4)
	n, b := 64, 8
	m := NewMatrix(a, "m", n, BlockedMorton, b, memory.FirstTouch{})
	half := n / 2
	quarterCells := n * n / 4
	quadOf := func(r, c int) int {
		q := 0
		if c >= half {
			q |= 1
		}
		if r >= half {
			q |= 2
		}
		return q
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			i := m.Index(r, c)
			if got, want := i/quarterCells, quadOf(r, c); got != want {
				t.Fatalf("cell (%d,%d) index %d in quarter %d, want quadrant %d", r, c, i, got, want)
			}
		}
	}
}

func TestBindQuadrantsToSockets(t *testing.T) {
	a := memory.NewAllocator(4)
	// 64x64 floats = 32 KiB = 8 pages; each quadrant = 2 pages.
	m := NewMatrix(a, "m", 64, BlockedMorton, 8, memory.FirstTouch{})
	m.BindQuadrantsToSockets([]int{0, 1, 2, 3})
	dist := m.R.Distribution(4)
	for s := 0; s < 4; s++ {
		if dist[s] != 2 {
			t.Errorf("socket %d owns %d pages, want 2; dist=%v", s, dist[s], dist)
		}
	}
}

func TestRowSpan(t *testing.T) {
	a := memory.NewAllocator(4)
	rm := NewMatrix(a, "rm", 16, RowMajor, 0, memory.Interleave{})
	off, size := rm.RowSpan(3, 4, 8)
	if off != int64(3*16+4)*8 || size != 64 {
		t.Errorf("row-major RowSpan = (%d,%d), want (%d,64)", off, size, int64(3*16+4)*8)
	}
	bm := NewMatrix(a, "bm", 16, BlockedMorton, 4, memory.Interleave{})
	off, _ = bm.RowSpan(5, 4, 4) // row 1 of block (1,1)
	if off != int64(bm.Index(5, 4))*8 {
		t.Errorf("blocked RowSpan offset = %d, want %d", off, int64(bm.Index(5, 4))*8)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RowSpan crossing block boundary did not panic")
			}
		}()
		bm.RowSpan(0, 2, 4)
	}()
}

func TestAtSetAddAcrossLayouts(t *testing.T) {
	a := memory.NewAllocator(2)
	for _, tc := range []struct {
		kind  Kind
		block int
	}{{RowMajor, 0}, {Morton, 0}, {BlockedMorton, 4}} {
		m := NewMatrix(a, tc.kind.String(), 8, tc.kind, tc.block, memory.Interleave{})
		m.Set(3, 5, 7.5)
		m.Add(3, 5, 0.5)
		if got := m.At(3, 5); got != 8 {
			t.Errorf("%v: At(3,5) = %f, want 8", tc.kind, got)
		}
		if got := m.At(5, 3); got != 0 {
			t.Errorf("%v: At(5,3) = %f, want 0", tc.kind, got)
		}
	}
}

func TestFillRandomLayoutIndependent(t *testing.T) {
	a := memory.NewAllocator(2)
	rm := NewMatrix(a, "rm", 16, RowMajor, 0, memory.Interleave{})
	bm := NewMatrix(a, "bm", 16, BlockedMorton, 4, memory.Interleave{})
	rm.FillRandom(42)
	bm.FillRandom(42)
	if !Equal(rm, bm, 0) {
		t.Error("FillRandom produced different logical contents across layouts")
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	a := memory.NewAllocator(2)
	x := NewMatrix(a, "x", 8, RowMajor, 0, memory.Interleave{})
	y := NewMatrix(a, "y", 8, RowMajor, 0, memory.Interleave{})
	if !Equal(x, y, 0) {
		t.Error("zero matrices not equal")
	}
	y.Set(7, 7, 1e-3)
	if Equal(x, y, 1e-6) {
		t.Error("difference not detected")
	}
	if !Equal(x, y, 1e-2) {
		t.Error("difference within eps not tolerated")
	}
	z := NewMatrix(a, "z", 4, RowMajor, 0, memory.Interleave{})
	if Equal(x, z, 1) {
		t.Error("size mismatch not detected")
	}
}

func TestNewMatrixValidation(t *testing.T) {
	a := memory.NewAllocator(2)
	for name, f := range map[string]func(){
		"morton non-pow2":     func() { NewMatrix(a, "m", 12, Morton, 0, memory.Interleave{}) },
		"block non-divisor":   func() { NewMatrix(a, "m", 16, BlockedMorton, 5, memory.Interleave{}) },
		"block grid non-pow2": func() { NewMatrix(a, "m", 24, BlockedMorton, 8, memory.Interleave{}) },
		"zero block":          func() { NewMatrix(a, "m", 16, BlockedMorton, 0, memory.Interleave{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{RowMajor: "row-major", Morton: "z-morton", BlockedMorton: "blocked-z-morton"} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind should include its number")
	}
}

// closedFormIndex is the per-element index formula the offset tables
// replace: the Morton bit interleave, the blocked form that scales the
// block's Morton index by b*b and adds the row-major in-block offset, and
// row*N+col. It is the oracle the tables are checked against.
func closedFormIndex(m *Matrix, row, col int) int {
	switch m.Kind {
	case Morton:
		return int(MortonIndex(row, col))
	case BlockedMorton:
		b := m.Block
		return int(MortonIndex(row/b, col/b))*b*b + (row%b)*b + col%b
	default:
		return row*m.N + col
	}
}

// layoutCases lists every legal (kind, block) for side n: row-major, cell
// Morton when n is a power of two, and blocked Morton with every block b
// that divides n into a power-of-two grid (e.g. n=24 with b=3, 6, 12, 24).
func layoutCases(n int) []struct {
	kind  Kind
	block int
} {
	type layoutCase = struct {
		kind  Kind
		block int
	}
	cases := []layoutCase{{RowMajor, 0}}
	if n&(n-1) == 0 {
		cases = append(cases, layoutCase{Morton, 0})
	}
	for b := 1; b <= n; b++ {
		if g := n / b; n%b == 0 && g&(g-1) == 0 {
			cases = append(cases, layoutCase{BlockedMorton, b})
		}
	}
	return cases
}

// testSides are the matrix sides the oracle tests cover: every power of
// two up to 256, and sides whose blocked layouts take non-power-of-two
// blocks.
var testSides = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 3, 12, 24, 48, 96, 160}

// TestOffsetTablesMatchClosedForm checks the separable index tables
// against the closed-form oracle for every kind, every side in testSides
// and every legal block, on fresh and on Rebind-ed matrices.
func TestOffsetTablesMatchClosedForm(t *testing.T) {
	a := memory.NewAllocator(4)
	for _, n := range testSides {
		for _, tc := range layoutCases(n) {
			m := NewMatrix(a, "m", n, tc.kind, tc.block, memory.Interleave{})
			for pass := 0; pass < 2; pass++ {
				for r := 0; r < n; r++ {
					for c := 0; c < n; c++ {
						if got, want := m.Index(r, c), closedFormIndex(m, r, c); got != want {
							t.Fatalf("n=%d %v block %d pass %d: Index(%d,%d) = %d, want %d",
								n, tc.kind, tc.block, pass, r, c, got, want)
						}
					}
				}
				// A pooled matrix carried into a new run must index the same.
				m.Rebind(memory.NewAllocator(4), "m", memory.FirstTouch{})
			}
		}
	}
}

// TestGridMatchesClosedForm pins the Fig. 6 renderer to the oracle at
// more sizes than the two paper tables.
func TestGridMatchesClosedForm(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 3, 12} {
		for _, tc := range layoutCases(n) {
			m := Matrix{N: n, Block: tc.block, Kind: tc.kind}
			var want strings.Builder
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if c > 0 {
						want.WriteByte(' ')
					}
					fmt.Fprintf(&want, "%2d", closedFormIndex(&m, r, c))
				}
				want.WriteByte('\n')
			}
			if got := Grid(n, tc.kind, tc.block); got != want.String() {
				t.Errorf("Grid(%d, %v, %d):\ngot:\n%s\nwant:\n%s", n, tc.kind, tc.block, got, want.String())
			}
		}
	}
}

// TestOutOfRangePanics: an index outside [0, N) in either dimension must
// fail instead of aliasing another element (row-major At(r, N) used to
// return element (r+1, 0)).
func TestOutOfRangePanics(t *testing.T) {
	a := memory.NewAllocator(2)
	const n = 8
	for _, tc := range []struct {
		kind  Kind
		block int
	}{{RowMajor, 0}, {Morton, 0}, {BlockedMorton, 4}} {
		m := NewMatrix(a, tc.kind.String(), n, tc.kind, tc.block, memory.Interleave{})
		for _, rc := range [][2]int{{2, n}, {n, 2}, {-1, 0}, {0, -1}} {
			for op, f := range map[string]func(){
				"At":  func() { m.At(rc[0], rc[1]) },
				"Set": func() { m.Set(rc[0], rc[1], 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%v: %s(%d,%d) did not panic", tc.kind, op, rc[0], rc[1])
						}
					}()
					f()
				}()
			}
		}
	}
}
