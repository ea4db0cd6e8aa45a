package loadvec

import "testing"

// FuzzConfigMoveSequence drives a Config through an arbitrary move
// sequence decoded from fuzz bytes and cross-checks its cached state and
// analysis reads against a from-scratch recomputation.
func FuzzConfigMoveSequence(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1}, []byte{0x01, 0x23, 0x10})
	f.Add([]byte{9, 0, 0, 0, 0}, []byte{0x01, 0x02, 0x03, 0x04})
	f.Add([]byte{2, 2, 2}, []byte{0x12, 0x21, 0x01})
	f.Fuzz(func(t *testing.T, loads []byte, moves []byte) {
		if len(loads) < 2 || len(loads) > 12 || len(moves) > 64 {
			return
		}
		v := make(Vector, len(loads))
		total := 0
		for i, b := range loads {
			v[i] = int(b % 16)
			total += v[i]
		}
		if total == 0 {
			return
		}
		c := NewConfig(v)
		n := len(v)
		for _, mv := range moves {
			src := int(mv>>4) % n
			dst := int(mv&0x0f) % n
			if src == dst || c.Load(src) == 0 {
				continue
			}
			c.Move(src, dst)
		}
		if err := validateAll(c); err != nil {
			t.Fatalf("incremental state diverged: %v", err)
		}
		if c.M() != total {
			t.Fatalf("ball count changed: %d -> %d", total, c.M())
		}
		if got, want := c.Disc(), c.Loads().Disc(); got != want {
			t.Fatalf("disc mismatch: %g vs %g", got, want)
		}
		if c.IsPerfect() != c.Loads().IsPerfect() {
			t.Fatal("IsPerfect mismatch")
		}
	})
}

// FuzzVectorStatistics checks the Vector-level identities on arbitrary
// inputs: overloaded balls = holes, disc consistency with min/max, and
// the h+r+k partition.
func FuzzVectorStatistics(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0, 0, 7})
	f.Fuzz(func(t *testing.T, loads []byte) {
		if len(loads) == 0 || len(loads) > 20 {
			return
		}
		v := make(Vector, len(loads))
		for i, b := range loads {
			v[i] = int(b % 32)
		}
		if ob, h := v.OverloadedBalls(), v.Holes(); ob-h > 1e-9 || h-ob > 1e-9 {
			t.Fatalf("overloaded %g != holes %g", ob, h)
		}
		h, r, k := v.AboveBelow()
		if h+r+k != len(v) {
			t.Fatalf("h+r+k = %d != n = %d", h+r+k, len(v))
		}
		min, max := v.MinMax()
		avg := v.Avg()
		d := v.Disc()
		if d+1e-9 < float64(max)-avg || d+1e-9 < avg-float64(min) {
			t.Fatal("disc below a deviation")
		}
		if v.IsPerfect() != (d < 1) {
			t.Fatal("IsPerfect inconsistent with disc")
		}
		s := v.SortedDesc()
		if !v.EqualAsMultiset(s) {
			t.Fatal("sorting changed the multiset")
		}
	})
}
