package harness

import (
	"bytes"
	"hash/fnv"
	"testing"
	"time"
)

// TestAllExperimentsQuick runs every registered experiment at Quick scale:
// the end-to-end gate that the whole reproduction pipeline — substrates,
// protocols, extensions, statistics — works together. Runtime-heavy, so
// skipped under -short. Each table's CSV rendering at seed 7 is pinned by
// its FNV-64a hash in tablePins, so a refactor that moves any cell of any
// table fails here with the table printed.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			start := time.Now()
			tb := e.Run(RunConfig{Seed: 7, Scale: Quick})
			if tb == nil {
				t.Fatal("nil table")
			}
			if tb.ID != e.ID {
				t.Errorf("table ID %q != experiment ID %q", tb.ID, e.ID)
			}
			if len(tb.Rows) == 0 {
				t.Error("empty table")
			}
			var buf bytes.Buffer
			tb.Render(&buf)
			if buf.Len() == 0 {
				t.Error("empty rendering")
			}
			buf.Reset()
			tb.RenderCSV(&buf)
			h := fnv.New64a()
			h.Write(buf.Bytes())
			if got, want := h.Sum64(), tablePins[e.ID]; got != want {
				t.Errorf("CSV hash %#016x, pinned %#016x; table:\n%s", got, want, buf.String())
			}
			t.Logf("%s: %d rows in %v", e.ID, len(tb.Rows), time.Since(start))
		})
	}
}

// tablePins holds the FNV-64a hash of every experiment's CSV rendering at
// seed 7, Quick scale. Like the engine goldens, these must never be
// regenerated casually: a mismatch means some engine, protocol or
// statistic behind that table changed its output.
var tablePins = map[string]uint64{
	"A2":   0xe08da1b88942f56c,
	"A4":   0x86b7227ccdeb0629,
	"A5":   0x00804c617b3e4227,
	"A7":   0x9184563c73df1faa,
	"A8":   0x45a7b1e8a81ee6ac,
	"CMP1": 0x9a35063769f1ac5d,
	"CMP2": 0xa130f1473eb7a3ca,
	"CMP3": 0x32d76039913a6e39,
	"DML":  0x28e50fdaf0e03e5f,
	"F1":   0x9ed68596be7ec53c,
	"F2":   0xa434b517c4ce23e3,
	"F3":   0x764e5505eab94adf,
	"L16":  0x9a54caf37f419c29,
	"L8":   0x53077b1a07472741,
	"L9":   0x44857f95a0a5ba28,
	"LB1":  0x2f25ff43edf6b408,
	"LB2":  0x4794411798330a4f,
	"O1":   0x83bf3d701dfef85a,
	"P1":   0xdced4500f690cd93,
	"P2":   0x5384754e3bba45ad,
	"P3":   0x023649eaf8d4e320,
	"T1":   0xfc0277e043ba0173,
	"T2":   0xddf3010bf21d2ff9,
	"X1":   0x6692faf31f8f844a,
	"X2":   0x5be60ef1cbbe069d,
	"X3":   0x5524744d6a32cdfd,
}
