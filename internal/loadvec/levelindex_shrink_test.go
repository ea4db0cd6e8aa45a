package loadvec

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/rng"
)

// allInOne returns an indexed configuration with every ball in bin 0,
// the start that grows the level range to ~2m.
func allInOne(n, m, gap int) *Config {
	v := make(Vector, n)
	v[0] = m
	c := NewConfig(v)
	c.enableLevelIndex(gap)
	return c
}

// encodeConfig returns the config's snapshot payload.
func encodeConfig(c *Config) []byte {
	var e persist.Enc
	c.EncodeState(&e)
	return e.Bytes()
}

// checkShrunk asserts the index sits inside the shrink rule's band
// ((max+1)·4 > size, or the minimum size) and that every cached
// structure still matches a from-scratch recompute.
func checkShrunk(t *testing.T, c *Config, what string) {
	t.Helper()
	if size := c.idx.size; size > 4 && (c.Max()+1)*4 <= size {
		t.Fatalf("%s: index covers %d levels at max load %d, want it shrunk", what, size, c.Max())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got, want := c.MoveWeight(), scratchMoveWeightGap(c.Loads(), c.idx.gap); got != want {
		t.Fatalf("%s: W = %d, want %d", what, got, want)
	}
}

// scratchMoveWeightGap is scratchMoveWeight under either tie rule.
func scratchMoveWeightGap(v Vector, gap int) int64 {
	var w int64
	for _, a := range v {
		for _, b := range v {
			if b <= a-gap {
				w += int64(a)
			}
		}
	}
	return w
}

// TestLevelIndexShrinksAfterDrain drains an all-in-one start by protocol
// moves and by departures, under both tie rules, and checks the level
// range ends O(max) with every cached structure intact.
func TestLevelIndexShrinksAfterDrain(t *testing.T) {
	const n, m = 64, 1024
	for _, gap := range []int{1, 2} {
		c := allInOne(n, m, gap)
		if c.idx.size < m {
			t.Fatalf("gap %d: all-in-one index covers %d levels, want ≥ %d", gap, c.idx.size, m)
		}
		for i := 0; c.Load(0) > m/n; i++ {
			c.Move(0, 1+i%(n-1))
		}
		checkShrunk(t, c, "drain by moves")
		if c.idx.size > 4*(m/n+2) {
			t.Fatalf("gap %d: %d levels left at max %d", gap, c.idx.size, c.Max())
		}

		d := allInOne(n, m, gap)
		for d.Load(0) > 2 {
			d.RemoveBall(0)
		}
		checkShrunk(t, d, "drain by departures")
	}

}

// TestLevelIndexShrinkAllocFree checks that moves crossing a shrink —
// and the grow back over the same range — allocate nothing: the trees
// are reset in place and the level slices are resliced within capacity.
func TestLevelIndexShrinkAllocFree(t *testing.T) {
	const n, m = 8, 256
	c := allInOne(n, m, 1)
	big := c.idx.size
	var small int
	cycle := func() {
		for i := 0; c.Load(0) > m/n; i++ {
			c.Move(0, 1+i%(n-1))
		}
		small = c.idx.size
		for i := 0; c.Load(0) < m; i++ {
			c.Move(1+i%(n-1), 0)
		}
	}
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Fatalf("drain-and-refill cycle allocated %v times per run", allocs)
	}
	if small >= big || c.idx.size != big {
		t.Fatalf("cycle did not cross a shrink: sizes %d → %d → %d", big, small, c.idx.size)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLevelIndexDecodeOversized decodes a snapshot whose level range far
// exceeds its max load — the shape every artifact written before the
// index learned to shrink can have — and checks it is accepted as is,
// then shrinks on the next move into exactly the state a never-oversized
// index reaches.
func TestLevelIndexDecodeOversized(t *testing.T) {
	v := Vector{3, 1, 2, 2, 0, 4, 2, 2}
	old := NewConfig(v)
	old.EnableLevelIndex()
	old.idx.resize(8192) // an old artifact: 8192 levels at max load 4
	raw := encodeConfig(old)

	c, err := DecodeConfigState(persist.NewDec(raw))
	if err != nil {
		t.Fatalf("decode oversized index: %v", err)
	}
	if c.idx.size != 8192 {
		t.Fatalf("decoded index covers %d levels, want the encoded 8192", c.idx.size)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ref := NewConfig(v)
	ref.EnableLevelIndex()
	c.Move(5, 4)
	ref.Move(5, 4)
	checkShrunk(t, c, "first move after decode")
	if got, want := encodeConfig(c), encodeConfig(ref); !bytes.Equal(got, want) {
		t.Fatalf("oversized decode diverged from a fresh index after one move (%d vs %d bytes)", len(got), len(want))
	}
}

// TestLevelIndexResumeAcrossShrink snapshots an index mid-drain, before
// its range shrinks, and checks the decoded copy continues through the
// shrink draw for draw and byte for byte with the uninterrupted one.
func TestLevelIndexResumeAcrossShrink(t *testing.T) {
	for _, gap := range []int{1, 2} {
		a := allInOne(32, 512, gap)
		r := rng.New(41)
		step := func(c *Config, r *rng.RNG) {
			src, dst := c.SampleMovePair(r)
			c.Move(src, dst)
		}
		for i := 0; i < 64; i++ {
			step(a, r)
		}
		before := a.idx.size
		b, err := DecodeConfigState(persist.NewDec(encodeConfig(a)))
		if err != nil {
			t.Fatal(err)
		}
		rb := rng.New(0)
		rb.Restore(r.State())
		for a.MoveWeight() > 0 {
			step(a, r)
			step(b, rb)
		}
		if a.idx.size >= before {
			t.Fatalf("gap %d: run did not cross a shrink (%d → %d levels)", gap, before, a.idx.size)
		}
		if got, want := encodeConfig(b), encodeConfig(a); !bytes.Equal(got, want) {
			t.Fatalf("gap %d: resumed index diverged across the shrink", gap)
		}
		if r.State() != rb.State() {
			t.Fatalf("gap %d: resumed run consumed a different number of draws", gap)
		}
		checkShrunk(t, b, "resumed past shrink")
	}
}

// TestDecodeConfigStateRejectsRepeatedBin feeds the decoder level lists
// for loads [1 1 0 2] that name one level-1 bin twice, once in place of
// the other bin at that level and once on top of it. A repeat either
// leaves another bin out of the permutation or would write past its last
// slot, so both are ErrCorrupt, while the honest lists decode to a valid
// index.
func TestDecodeConfigStateRejectsRepeatedBin(t *testing.T) {
	payload := func(lists ...[]int32) []byte {
		var e persist.Enc
		e.Ints([]int{1, 1, 0, 2})
		e.Bool(true)
		e.Int(1) // tie gap
		e.Int(4) // levels
		for _, l := range lists {
			e.I32s(l)
		}
		return e.Bytes()
	}
	c, err := DecodeConfigState(persist.NewDec(payload([]int32{2}, []int32{0, 1}, []int32{3}, nil)))
	if err != nil {
		t.Fatalf("honest lists: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("honest lists: %v", err)
	}
	for name, lists := range map[string][][]int32{
		"in place": {{2}, {0, 0}, {3}, nil},
		"on top":   {{2}, {0, 1, 0}, {3}, nil},
	} {
		_, err := DecodeConfigState(persist.NewDec(payload(lists...)))
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), "bin 0 listed twice") {
			t.Errorf("%s: got %v, want ErrCorrupt naming the repeated bin", name, err)
		}
	}
}
