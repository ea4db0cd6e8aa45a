package rls

import (
	"bytes"

	"repro/internal/persist"
)

// ForgeSnapshot frames a snapshot whose header records spec over n bins,
// whatever Validate says of it, followed by an engine section of n zero
// bytes: enough for the bin count, never a decodable engine state.
func ForgeSnapshot(n int, spec Spec) []byte {
	var buf bytes.Buffer
	_ = persist.WriteHeader(&buf, persist.MagicSnapshot)
	_ = persist.WriteSection(&buf, sectMeta, metaOf(n, spec, nil).encode())
	_ = persist.WriteSection(&buf, sectEngine, make([]byte, n))
	_ = persist.WriteSection(&buf, persist.KindEnd, nil)
	return buf.Bytes()
}
