package persist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// TestEncDecRoundTrip drives every primitive through an encode/decode
// cycle in one payload.
func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(-1)
	e.I64(math.MinInt64)
	e.Int(42)
	e.Bool(true)
	e.Bool(false)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bytes8([]byte("hello"))
	e.Bytes8(nil)
	e.Ints([]int{3, -7, 0})
	e.I32s([]int32{1, -2, math.MaxInt32})

	d := NewDec(e.Bytes())
	if got := d.U64(); got != 0 {
		t.Fatalf("U64: %d", got)
	}
	if got := d.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 max: %d", got)
	}
	if got := d.I64(); got != -1 {
		t.Fatalf("I64: %d", got)
	}
	if got := d.I64(); got != math.MinInt64 {
		t.Fatalf("I64 min: %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Fatalf("Int: %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64: %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 -inf: %v", got)
	}
	if got := d.Bytes8(); string(got) != "hello" {
		t.Fatalf("Bytes8: %q", got)
	}
	if got := d.Bytes8(); len(got) != 0 {
		t.Fatalf("Bytes8 nil: %q", got)
	}
	wantInts := []int{3, -7, 0}
	for i, v := range d.Ints() {
		if v != wantInts[i] {
			t.Fatalf("Ints[%d]: %d", i, v)
		}
	}
	wantI32s := []int32{1, -2, math.MaxInt32}
	for i, v := range d.I32s() {
		if v != wantI32s[i] {
			t.Fatalf("I32s[%d]: %d", i, v)
		}
	}
	if d.Err() != nil {
		t.Fatalf("clean round trip erred: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

// TestDecSticky: after the first failure every read returns zero values
// and the original error survives.
func TestDecSticky(t *testing.T) {
	d := NewDec([]byte{0x02}) // Bool wants 0 or 1
	if d.Bool() {
		t.Fatal("bad bool decoded true")
	}
	first := d.Err()
	if first == nil {
		t.Fatal("bad bool did not fail")
	}
	if got := d.U64(); got != 0 {
		t.Fatalf("post-error U64: %d", got)
	}
	if d.Err() != first {
		t.Fatalf("error was overwritten: %v", d.Err())
	}
}

// TestDecBoundsCorruptLengths: slice lengths beyond the remaining
// payload are rejected without allocating.
func TestDecBoundsCorruptLengths(t *testing.T) {
	var e Enc
	e.U64(1 << 40) // an absurd element count
	for _, read := range []func(d *Dec){
		func(d *Dec) { d.Ints() },
		func(d *Dec) { d.I32s() },
		func(d *Dec) { d.Bytes8() },
	} {
		d := NewDec(e.Bytes())
		read(d)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("oversized length decoded: %v", d.Err())
		}
	}
}

// TestSectionFrameRoundTrip: header, sections, CRC framing, end marker.
func TestSectionFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, MagicSnapshot); err != nil {
		t.Fatal(err)
	}
	if err := WriteSection(&buf, 1, []byte("payload-one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSection(&buf, 7, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteSection(&buf, KindEnd, nil); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	if err := ReadHeader(br, MagicSnapshot); err != nil {
		t.Fatal(err)
	}
	sr := NewSectionReader(br)
	kind, payload, err := sr.Next()
	if err != nil || kind != 1 || string(payload) != "payload-one" {
		t.Fatalf("section 1: kind=%d payload=%q err=%v", kind, payload, err)
	}
	kind, payload, err = sr.Next()
	if err != nil || kind != 7 || len(payload) != 0 {
		t.Fatalf("section 7: kind=%d payload=%q err=%v", kind, payload, err)
	}
	kind, _, err = sr.Next()
	if err != nil || kind != KindEnd {
		t.Fatalf("end: kind=%d err=%v", kind, err)
	}
	if _, _, err = sr.Next(); err != io.EOF {
		t.Fatalf("past end: %v", err)
	}
}

// TestSectionCRC: a payload bit flip is a checksum error; a CRC bit flip
// likewise.
func TestSectionCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSection(&buf, 3, []byte("sensitive")); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{2, buf.Len() - 1} { // inside payload; inside CRC
		mut := append([]byte(nil), buf.Bytes()...)
		mut[off] ^= 0x10
		sr := NewSectionReader(bufio.NewReader(bytes.NewReader(mut)))
		if _, _, err := sr.Next(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: %v, want ErrChecksum", off, err)
		}
	}
}

// TestSectionTruncation: cuts inside a section are ErrTruncated; a cut
// at a section boundary is clean io.EOF (the crash-tail contract).
func TestSectionTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSection(&buf, 3, []byte("sensitive")); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut++ {
		sr := NewSectionReader(bufio.NewReader(bytes.NewReader(buf.Bytes()[:cut])))
		if _, _, err := sr.Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
	sr := NewSectionReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if _, _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("boundary cut: %v, want io.EOF", err)
	}
}

// TestReadHeaderErrors: wrong magic (including the other artifact kind)
// and version skew are typed.
func TestReadHeaderErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, MagicTrace); err != nil {
		t.Fatal(err)
	}
	err := ReadHeader(bufio.NewReader(bytes.NewReader(buf.Bytes())), MagicSnapshot)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("trace-as-snapshot: %v", err)
	}

	err = ReadHeader(bufio.NewReader(bytes.NewReader([]byte("JUNKJUNK"))), MagicSnapshot)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage magic: %v", err)
	}

	var skew Enc
	skew.U64(Version + 3)
	raw := append([]byte(MagicSnapshot), skew.Bytes()...)
	err = ReadHeader(bufio.NewReader(bytes.NewReader(raw)), MagicSnapshot)
	var verr *VersionError
	if !errors.As(err, &verr) || verr.Got != Version+3 || verr.Want != Version {
		t.Fatalf("version skew: %v", err)
	}
}
