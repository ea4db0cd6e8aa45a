// Package persist is the binary codec under every durable artifact in
// this repository: engine snapshots (full session state, resumable
// byte-identically) and trace archives (streamed trajectory records
// with embedded snapshots as seek points). The format is deliberately
// small:
//
//	artifact := magic[4] version:uvarint section* end-section
//	section  := kind:uvarint len:uvarint payload[len] crc32(payload):4 LE
//
// Payloads are varint-packed little-endian scalar streams built with
// Enc and read back with Dec. Every artifact terminates with an
// explicit End section (kind 0, empty payload), so a truncated file is
// distinguishable from a complete one; every section carries an IEEE
// CRC32 of its payload, so corruption is detected before any decoder
// interprets bytes. Decoders return typed errors (ErrTruncated,
// ErrChecksum, ErrBadMagic, ErrCorrupt, *VersionError) and never
// panic, including on adversarial input — FuzzDecodeSnapshot in the
// root package leans on that.
//
// The codec carries no type information beyond section kinds: each
// layer (loadvec, sim, the root rls package) owns the encoding of its
// unexported state and documents its own payload layout. What makes
// the round trip byte-identical is a layering rule, not the wire
// format: state whose in-memory order evolved under simulation
// (per-level bin lists, sampler slots, heap order, RNG words) is
// serialized verbatim, while state that is a pure function of it
// (Fenwick trees, position indices, derived stats) is rebuilt
// deterministically on decode.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the current artifact format version; decoders reject
// anything else with a *VersionError. Version 2 extended the session
// meta section with a topology seed and a graph-sampler mode (PR 10);
// version-1 artifacts are rejected rather than misread.
const Version = 2

// Artifact magics: the first four bytes of every file.
const (
	MagicSnapshot = "RLSS"
	MagicTrace    = "RLST"
)

// KindEnd terminates every artifact; layers number their own sections
// from 1.
const KindEnd = 0

// maxSection bounds a single section payload; anything larger is
// corrupt by construction (a full n = 10⁷ sharded snapshot is ~100 MB).
const maxSection = 1 << 31

// Typed decode errors. Wrapped errors carry context; match with
// errors.Is / errors.As.
var (
	// ErrBadMagic: the artifact does not start with a known magic.
	ErrBadMagic = errors.New("persist: unrecognized artifact magic")
	// ErrTruncated: the input ended mid-header, mid-section, or before
	// the End section.
	ErrTruncated = errors.New("persist: truncated artifact")
	// ErrChecksum: a section's CRC32 does not match its payload.
	ErrChecksum = errors.New("persist: section checksum mismatch")
	// ErrCorrupt: structurally invalid contents (impossible lengths,
	// inconsistent state, unknown enum values).
	ErrCorrupt = errors.New("persist: corrupt artifact")
)

// VersionError reports an artifact written by a different format
// version.
type VersionError struct {
	Got, Want uint64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: artifact version %d (decoder speaks %d)", e.Got, e.Want)
}

// Corruptf wraps ErrCorrupt with context.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// WriteHeader writes an artifact header (magic + version).
func WriteHeader(w io.Writer, magic string) error {
	var buf [4 + binary.MaxVarintLen64]byte
	copy(buf[:4], magic)
	n := binary.PutUvarint(buf[4:], Version)
	_, err := w.Write(buf[:4+n])
	return err
}

// ReadHeader consumes and validates a header, requiring the given
// magic. A byte-oriented reader should be used for what follows;
// SectionReader wraps one itself.
func ReadHeader(br *bufio.Reader, magic string) error {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if got := string(m[:]); got != magic {
		if got == MagicSnapshot || got == MagicTrace {
			return fmt.Errorf("%w: got %s artifact, want %s", ErrBadMagic, got, magic)
		}
		return fmt.Errorf("%w: %q", ErrBadMagic, got)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: reading version: %v", ErrTruncated, err)
	}
	if v != Version {
		return &VersionError{Got: v, Want: Version}
	}
	return nil
}

// WriteSection frames one payload: kind, length, bytes, CRC32.
func WriteSection(w io.Writer, kind uint64, payload []byte) error {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], kind)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	_, err := w.Write(crc[:])
	return err
}

// SectionReader iterates the sections of one artifact after its header.
type SectionReader struct {
	br *bufio.Reader
}

// NewSectionReader wraps r; use the same reader ReadHeader consumed
// from (or pass the SectionReader's Reader to ReadHeader first).
func NewSectionReader(br *bufio.Reader) *SectionReader {
	return &SectionReader{br: br}
}

// Next returns the next section. Clean EOF at a section boundary
// returns io.EOF (trace archives cut off by a crash end this way after
// their last complete section); EOF anywhere inside a section returns
// ErrTruncated; a CRC mismatch returns ErrChecksum.
func (sr *SectionReader) Next() (kind uint64, payload []byte, err error) {
	kind, err = binary.ReadUvarint(sr.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: section kind: %v", ErrTruncated, err)
	}
	length, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: section length: %v", ErrTruncated, err)
	}
	if length > maxSection {
		return 0, nil, Corruptf("section of %d bytes exceeds the format bound", length)
	}
	payload = make([]byte, length)
	if _, err := io.ReadFull(sr.br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: section payload: %v", ErrTruncated, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(sr.br, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: section checksum: %v", ErrTruncated, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("%w: kind %d: computed %08x, stored %08x", ErrChecksum, kind, got, want)
	}
	return kind, payload, nil
}

// Enc builds a varint-packed payload. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Reset empties the buffer, keeping capacity.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a zigzag-coded signed varint.
func (e *Enc) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends 8 little-endian bytes of the IEEE 754 representation —
// bit-exact, which the byte-identical resume contract requires.
func (e *Enc) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bytes8 appends a length-prefixed byte string.
func (e *Enc) Bytes8(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Ints appends a length-prefixed slice of signed varints.
func (e *Enc) Ints(s []int) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.I64(int64(v))
	}
}

// I32s appends a length-prefixed slice of signed varints.
func (e *Enc) I32s(s []int32) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.I64(int64(v))
	}
}

// I64s appends a length-prefixed slice of signed varints.
func (e *Enc) I64s(s []int64) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.I64(v)
	}
}

// Bools appends a length-prefixed slice of single bytes.
func (e *Enc) Bools(s []bool) {
	e.U64(uint64(len(s)))
	for _, v := range s {
		e.Bool(v)
	}
}

// Dec reads a payload written by Enc. Errors are sticky: after the
// first malformed read every subsequent call returns zero values and
// Err() reports the failure, so decoders can read a whole structure
// and check once. All slice lengths are validated against the bytes
// actually remaining (every element costs at least one byte), so
// corrupt lengths cannot trigger huge allocations.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a payload.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

// Remaining reports the unread byte count.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Fail marks the decoder failed with a corruption error; layer decoders
// use it for semantic validation failures.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = Corruptf(format, args...)
	}
}

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(Corruptf("bad uvarint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

// I64 reads a zigzag-coded signed varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(Corruptf("bad varint at offset %d", d.off))
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int, failing on 32-bit overflow.
func (d *Dec) Int() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.fail(Corruptf("int value %d overflows", v))
		return 0
	}
	return int(v)
}

// Bool reads one byte, requiring 0 or 1.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(Corruptf("bool past end at offset %d", d.off))
		return false
	}
	b := d.buf[d.off]
	if b > 1 {
		d.fail(Corruptf("bad bool byte %d at offset %d", b, d.off))
		return false
	}
	d.off++
	return b == 1
}

// F64 reads 8 little-endian IEEE 754 bytes.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(Corruptf("float past end at offset %d", d.off))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// sliceLen reads and bounds a slice length: every encoded element
// occupies at least one byte, so a valid length never exceeds the
// remaining payload — the check that keeps corrupt lengths from
// triggering gigabyte allocations.
func (d *Dec) sliceLen() int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()) {
		d.fail(Corruptf("slice length %d exceeds %d remaining bytes", n, d.Remaining()))
		return 0
	}
	return int(n)
}

// Bytes8 reads a length-prefixed byte string (nil when empty).
func (d *Dec) Bytes8() []byte {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

// Ints reads a length-prefixed []int (nil when empty).
func (d *Dec) Ints() []int {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]int, n)
	for i := range s {
		s[i] = d.Int()
	}
	return s
}

// I32s reads a length-prefixed []int32 (nil when empty).
func (d *Dec) I32s() []int32 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]int32, n)
	for i := range s {
		v := d.I64()
		if int64(int32(v)) != v {
			d.Fail("int32 value %d overflows", v)
			return nil
		}
		s[i] = int32(v)
	}
	return s
}

// I64s reads a length-prefixed []int64 (nil when empty).
func (d *Dec) I64s() []int64 {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = d.I64()
	}
	return s
}

// Bools reads a length-prefixed []bool (nil when empty).
func (d *Dec) Bools() []bool {
	n := d.sliceLen()
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]bool, n)
	for i := range s {
		s[i] = d.Bool()
	}
	return s
}
