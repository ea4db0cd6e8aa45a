package loadvec

import (
	"repro/internal/persist"
)

// This file is loadvec's half of the snapshot codec. The byte-identical
// resume contract dictates what is serialized verbatim versus rebuilt:
// the per-level bin *lists* (binsAt) evolved under
// swap-deletes, so their element order is simulation state and ships
// verbatim; the prefix counts, the move-weight tree, position indices
// and histogram stats are pure functions of those lists and are
// rederived on decode via the same rebuildTrees/rebuildCounts paths the
// live structures use — so a decoded index is indistinguishable from one
// that never left memory, with no rebuild-from-scratch divergence. The
// ball tree is not rebuilt on decode: like a live index's, it is built
// from the lists on the first SampleBallBin, and a prefix-sum tree's
// array form is a function of its leaves alone, so when it is built does
// not change a draw. The same holds one level up: a graph jump engine's
// Config carries no index until its first random departure builds one
// from the loads, so a payload without an index resumes to the same
// lists, and the same draws, as the run that never stopped.

// EncodeState appends the configuration (and its level index, when
// enabled) to the payload: the tie gap, the level count and the lists.
func (c *Config) EncodeState(e *persist.Enc) {
	e.Ints(c.loads)
	if c.idx == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	x := c.idx
	e.Int(x.gap)
	e.Int(x.size)
	for v := 0; v < x.size; v++ {
		e.I32s(x.binsAt[v])
	}
}

// DecodeConfigState reads a Config written by EncodeState. The
// histogram and the index's move-weight state are rebuilt from the loads
// and the verbatim level lists.
func DecodeConfigState(d *persist.Dec) (*Config, error) {
	loads := d.Ints()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if len(loads) == 0 {
		return nil, persist.Corruptf("config with no bins")
	}
	for i, l := range loads {
		if l < 0 {
			return nil, persist.Corruptf("config with negative load %d at bin %d", l, i)
		}
	}
	c := NewConfig(loads)
	indexed := d.Bool()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if !indexed {
		return c, nil
	}

	gap := d.Int()
	size := d.Int()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if gap != 1 && gap != 2 {
		return nil, persist.Corruptf("level index tie gap %d (want 1 or 2)", gap)
	}
	// Every level costs at least one encoded byte (its list's length
	// prefix), which bounds size by the remaining payload — the same
	// guard Dec applies to slice lengths.
	if size < 4 || size&(size-1) != 0 || size <= c.max || size > d.Remaining() {
		return nil, persist.Corruptf("level index size %d (max level %d, %d bytes remain)", size, c.max, d.Remaining())
	}
	x := emptyLevelIndex(c.n, size, gap)
	seen := 0
	for v := 0; v < size; v++ {
		lst := d.I32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
		for p, bin := range lst {
			if bin < 0 || int(bin) >= c.n {
				return nil, persist.Corruptf("level list holds bin %d of %d", bin, c.n)
			}
			if c.loads[bin] != v {
				return nil, persist.Corruptf("bin %d listed at level %d but loaded %d", bin, v, c.loads[bin])
			}
			x.pos[bin] = int32(p)
			seen++
		}
		x.binsAt[v] = lst
	}
	// Each bin's load matched its list level, so n listings with no level
	// mismatch means every bin appeared exactly once.
	if seen != c.n {
		return nil, persist.Corruptf("level lists hold %d bins, config has %d", seen, c.n)
	}
	x.rebuildTrees()
	c.idx = x
	return c, nil
}
