package cache

import (
	"testing"

	"repro/internal/topology"
)

// streamAccess is one step of a recorded access stream.
type streamAccess struct {
	now          int64
	core, home   int
	line         int64
	write, strm  bool
	flushOnly    bool // FlushCore(core) instead of an access
	checkPointed bool // verify the directory invariant after this step
}

// sparseStream builds a seeded read/write stream over sparse line ids: a
// handful of clusters spread up to past line 3,000,000 (so the directory
// sees far-apart chunks with untouched ones between them), a skew toward
// a hot subset (so lines are shared, hit, written and invalidated), enough
// distinct lines to force private-cache evictions, and an occasional core
// flush.
func sparseStream(top *topology.Topology, n int, seed uint64) []streamAccess {
	const clusters, width = 8, 6000
	rnd := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return rnd >> 11
	}
	out := make([]streamAccess, n)
	var now int64
	for i := range out {
		a := &out[i]
		now += int64(next() % 64)
		a.now = now
		a.core = int(next() % uint64(top.Cores()))
		a.home = int(next() % uint64(top.Sockets()))
		cl := int64(next() % clusters)
		off := int64(next() % width)
		if next()%2 == 0 {
			off %= 256 // hot subset
		}
		a.line = cl*430_000 + off
		a.write = next()%4 == 0
		a.strm = next()%2 == 0
		a.flushOnly = next()%997 == 0
		a.checkPointed = i%(n/8) == 0 || i == n-1
	}
	return out
}

// replay drives the stream into h and returns each access's (cost, kind);
// check, when non-nil, runs at every checkpoint.
func replay(h *Hierarchy, s []streamAccess, check func(step int)) []int64 {
	out := make([]int64, 0, 2*len(s))
	for i, a := range s {
		if a.flushOnly {
			h.FlushCore(a.core)
		} else {
			cost, kind := h.Access(a.now, a.core, a.line, a.home, a.write, a.strm)
			out = append(out, cost, int64(kind))
		}
		if check != nil && a.checkPointed {
			check(i)
		}
	}
	return out
}

// checkDirectory asserts the directory invariant: a line's private bit for
// core c is set iff c's private tag array holds the line, its LLC bit for
// socket s is set iff s's LLC tag array holds it, and DirectorySize counts
// exactly the distinct lines held anywhere.
func checkDirectory(t *testing.T, h *Hierarchy, step int) {
	t.Helper()
	type holders struct{ priv, llc map[int]bool }
	want := map[int64]*holders{}
	get := func(line int64) *holders {
		if want[line] == nil {
			want[line] = &holders{priv: map[int]bool{}, llc: map[int]bool{}}
		}
		return want[line]
	}
	for c, sa := range h.priv {
		for _, line := range sa.tag {
			if line >= 0 {
				get(line).priv[c] = true
			}
		}
	}
	for s, sa := range h.llc {
		for _, line := range sa.tag {
			if line >= 0 {
				get(line).llc[s] = true
			}
		}
	}
	cores, sockets := h.top.Cores(), h.top.Sockets()
	for line, hs := range want {
		li := h.info(line)
		for c := 0; c < cores; c++ {
			if li.priv.get(c) != hs.priv[c] {
				t.Fatalf("step %d: line %d core %d: directory bit %v, private cache holds %v",
					step, line, c, li.priv.get(c), hs.priv[c])
			}
		}
		for s := 0; s < sockets; s++ {
			if li.llc.get(s) != hs.llc[s] {
				t.Fatalf("step %d: line %d socket %d: directory bit %v, LLC holds %v",
					step, line, s, li.llc.get(s), hs.llc[s])
			}
		}
	}
	if got := h.DirectorySize(); got != len(want) {
		t.Fatalf("step %d: DirectorySize = %d, want %d distinct lines held", step, got, len(want))
	}
}

// dirChunks returns the directory's allocated chunks, keyed by their first
// word, with each chunk's capacity in words.
func dirChunks(h *Hierarchy) map[*uint64]int {
	held := map[*uint64]int{}
	for _, ch := range h.dir {
		if ch != nil {
			held[&ch[0]] = cap(ch)
		}
	}
	return held
}

// checkDirectoryMemory bounds the directory's memory by the pages the
// stream touched: one chunk of words<<dirChunkBits words per touched
// 4096-line page, nothing for the untouched pages between them, and an
// index no longer than the highest touched page.
func checkDirectoryMemory(t *testing.T, h *Hierarchy, s []streamAccess, words int) {
	t.Helper()
	pages := map[int64]bool{}
	var top int64
	for _, a := range s {
		if !a.flushOnly {
			pages[a.line>>dirChunkBits] = true
			top = max(top, a.line>>dirChunkBits)
		}
	}
	if w := h.pw + h.lw; w != words {
		t.Fatalf("entry width = %d words, want %d", w, words)
	}
	held := dirChunks(h)
	if len(held) != len(pages) {
		t.Fatalf("%d chunks allocated, want one per touched page (%d)", len(held), len(pages))
	}
	for _, c := range held {
		if c != words<<dirChunkBits {
			t.Fatalf("chunk holds %d words, want %d", c, words<<dirChunkBits)
		}
	}
	if n := int64(len(h.dir)); n != top+1 {
		t.Fatalf("chunk index has %d slots, want %d (highest touched page + 1)", n, top+1)
	}
}

// TestDirectoryInvariant replays a sparse seeded stream on the paper
// machine and on the 192-core shape from TestBigMachineDirectory, checking
// the directory against the tag arrays along the way and its memory
// against the touched pages at the end, then checks that Reset empties the
// directory, that replaying the stream on the Reset hierarchy charges
// exactly what a fresh hierarchy charges, and that the replay reuses every
// chunk. The caches are shrunk so the stream evicts from both levels on
// both shapes. The entry widths are the directory's per-line overhead: 16
// bytes per 64-byte line on the paper machine, 40 on the 192-core ring.
func TestDirectoryInvariant(t *testing.T) {
	geo := Geometry{PrivateBytes: 2 << 10, PrivateWays: 2, LLCBytes: 8 << 10, LLCWays: 4}
	for _, tc := range []struct {
		name  string
		top   *topology.Topology
		words int
	}{
		{"paper-4x8", topology.XeonE5_4620(), 2},
		{"ring-96x2", topology.Ring(96, 2), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sparseStream(tc.top, 40000, 3)
			h := NewHierarchy(tc.top, geo, DefaultLatency())
			first := replay(h, s, func(step int) { checkDirectory(t, h, step) })
			if h.DirectorySize() == 0 {
				t.Fatal("stream left nothing in the directory")
			}
			checkDirectoryMemory(t, h, s, tc.words)
			held := dirChunks(h)

			h.Reset()
			if n := h.DirectorySize(); n != 0 {
				t.Fatalf("DirectorySize after Reset = %d, want 0", n)
			}
			again := replay(h, s, nil)
			fresh := replay(NewHierarchy(tc.top, geo, DefaultLatency()), s, nil)
			for i := range fresh {
				if again[i] != fresh[i] || first[i] != fresh[i] {
					t.Fatalf("observation %d: fresh %d, first pass %d, after Reset %d",
						i, fresh[i], first[i], again[i])
				}
			}
			reused := dirChunks(h)
			if len(reused) != len(held) {
				t.Fatalf("after Reset and replay: %d chunks, want the same %d", len(reused), len(held))
			}
			for p := range reused {
				if _, ok := held[p]; !ok {
					t.Fatal("Reset and replay allocated a new chunk instead of reusing one")
				}
			}
		})
	}
}

// TestSetCountMustBePowerOfTwo: sets are picked by masking, so a geometry
// with any other set count is refused at construction.
func TestSetCountMustBePowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ bytes, ways int }{
		{3 * 64, 1},    // 3 sets
		{12 << 10, 8},  // 24 sets
		{48 << 10, 16}, // 48 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newSetAssoc(%d, %d) did not panic", tc.bytes, tc.ways)
				}
			}()
			newSetAssoc(tc.bytes, tc.ways)
		}()
	}
	if c := newSetAssoc(64<<10, 8); c.mask != 127 {
		t.Errorf("64 KiB in 8 ways: mask = %d, want 127", c.mask)
	}
}
