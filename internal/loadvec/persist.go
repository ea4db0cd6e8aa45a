package loadvec

import (
	"repro/internal/persist"
)

// This file is loadvec's half of the snapshot codec. The byte-identical
// resume contract dictates what is serialized verbatim versus rebuilt:
// the level index's bin permutation evolved under boundary swaps, so the
// order of the bins within each level's segment is simulation state and
// ships verbatim, one list per level (the segments of order, in level
// order); the prefix counts are the lists' lengths summed, and the
// move-weight tree, position indices and histogram stats are pure
// functions of the loads and the permutation, rederived on decode via
// the same rebuildTrees/rebuildCounts paths the live structures use — so
// a decoded index is indistinguishable from one that never left memory,
// with no rebuild-from-scratch divergence. The ball tree is not rebuilt
// on decode: like a live index's, it is built from the prefix counts on
// the first SampleBallBin, and a prefix-sum tree's array form is a
// function of its leaves alone, so when it is built does not change a
// draw. The same holds one level up: a graph jump engine's Config
// carries no index until its first random departure builds one from the
// loads, so a payload without an index resumes to the same permutation,
// and the same draws, as the run that never stopped.

// EncodeState appends the configuration (and its level index, when
// enabled) to the payload: the tie gap, the level count and one list per
// level, the level's segment of the permutation.
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
		e.I32s(x.order[x.first(v):x.cum[v]])
	}
}

// DecodeConfigState reads a Config written by EncodeState. The
// histogram and the index's move-weight state are rebuilt from the loads
// and the verbatim level lists, which concatenate into the permutation.
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
	for i := range x.pos {
		x.pos[i] = -1 // not listed yet
	}
	seen := 0
	for v := 0; v < size; v++ {
		lst := d.I32s()
		if d.Err() != nil {
			return nil, d.Err()
		}
		for _, bin := range lst {
			if bin < 0 || int(bin) >= c.n {
				return nil, persist.Corruptf("level list holds bin %d of %d", bin, c.n)
			}
			if c.loads[bin] != v {
				return nil, persist.Corruptf("bin %d listed at level %d but loaded %d", bin, v, c.loads[bin])
			}
			// A bin listed once more would take another bin's slot, and
			// n distinct bins fill the permutation exactly, so this check
			// also keeps every write inside order.
			if x.pos[bin] >= 0 {
				return nil, persist.Corruptf("bin %d listed twice", bin)
			}
			x.order[seen] = bin
			x.pos[bin] = int32(seen)
			seen++
		}
		x.cum[v] = int64(seen)
	}
	// Each bin's load matched its list level and no bin repeated, so n
	// listings means every bin appeared exactly once.
	if seen != c.n {
		return nil, persist.Corruptf("level lists hold %d bins, config has %d", seen, c.n)
	}
	x.rebuildTrees()
	c.idx = x
	return c, nil
}
