// Package snap is the byte-for-byte-deterministic binary container
// format behind simulator snapshots (see sim.Machine.Save/Restore and
// the cosim checkpoint). It provides a primitive-level Writer/Reader
// pair with three durability guarantees:
//
//   - Versioned: every stream opens with a fixed magic and a format
//     version; Open rejects a version mismatch with a *VersionError, so
//     a snapshot written by a different build of the format can never be
//     half-decoded into a plausible-but-wrong machine.
//   - Checksummed: a CRC-64 (ECMA) of the entire header+payload trails
//     the stream; Finish rejects any bit flip with a *CorruptError.
//   - Deterministic: the encoding has exactly one representation per
//     value sequence (unsigned LEB128 varints, length-prefixed byte
//     strings, no maps, no padding), so saving the same state twice
//     yields identical bytes — which the golden-snapshot tests pin.
//
// The container is schema-free: the caller (the machine codec) writes
// and reads primitives in a fixed order. Truncation therefore surfaces
// either as an unexpected-EOF *CorruptError at the primitive that ran
// dry or as a checksum mismatch at Finish.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"

	"xpdl/internal/val"
)

// Magic opens every snapshot stream.
const Magic = "XPDS"

// Version is the current snapshot format version. Bump it whenever the
// machine codec's field order or meaning changes; Open is strict.
const Version = 1

// maxBlob bounds length-prefixed byte strings, so a corrupted length
// cannot force a multi-gigabyte allocation before the checksum check.
const maxBlob = 1 << 26

var crcTable = crc64.MakeTable(crc64.ECMA)

// VersionError reports a snapshot written under a different format
// version than this build understands.
type VersionError struct {
	Got, Want uint64
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snap: snapshot format version %d, this build reads version %d", e.Got, e.Want)
}

// CorruptError reports a snapshot that failed structural validation:
// bad magic, a truncated stream, a checksum mismatch, or trailing
// garbage after the checksum.
type CorruptError struct {
	Offset int64 // stream offset at detection
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("snap: corrupt snapshot at offset %d: %s", e.Offset, e.Reason)
}

// ---------------------------------------------------------------------------
// Writer

// Writer encodes a snapshot stream. The stream is built in memory and
// handed to the underlying writer in one Write at Close, after a single
// checksum pass over it. Errors are sticky: the first failure is
// remembered and returned by Close, so codec code can write
// unconditionally and check once.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter starts a snapshot stream on w, emitting the magic and
// format version.
func NewWriter(w io.Writer) *Writer {
	sw := &Writer{w: w, buf: make([]byte, 0, 4096)}
	sw.buf = append(sw.buf, Magic...)
	sw.U64(Version)
	return sw
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int writes a non-negative int. Negative values poison the stream —
// the machine codec has no negative quantities, so one indicates a bug.
func (w *Writer) Int(v int) {
	if v < 0 && w.err == nil {
		w.err = fmt.Errorf("snap: negative int %d", v)
		return
	}
	w.U64(uint64(v))
}

// Bool writes a single 0/1 byte.
func (w *Writer) Bool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	w.U64(v)
}

// Bytes writes a length-prefixed byte string.
func (w *Writer) Bytes(p []byte) {
	w.Int(len(p))
	w.buf = append(w.buf, p...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Val writes a sized bit vector as (width, bits). The zero val.Value
// round-trips as width 0.
func (w *Writer) Val(v val.Value) {
	if v == (val.Value{}) {
		w.U64(0)
		return
	}
	w.Int(v.Width())
	w.U64(v.Uint())
}

// Close appends the checksum trailer, writes the whole stream and
// returns the first error encountered, if any; after an error nothing
// is written. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, crc64.Checksum(w.buf, crcTable))
	if _, err := w.w.Write(w.buf); err != nil {
		w.err = err
	}
	return w.err
}

// ---------------------------------------------------------------------------
// Reader

// Reader decodes a snapshot stream. Like Writer, errors are sticky;
// reads after a failure return zero values, and Finish reports the
// first error.
type Reader struct {
	r   io.Reader
	crc uint64
	off int64
	err error
}

// Open validates the magic and version of a snapshot stream and
// returns a reader positioned at the first payload primitive. A wrong
// magic yields a *CorruptError; a version mismatch a *VersionError.
func Open(r io.Reader) (*Reader, error) {
	sr := &Reader{r: r}
	var magic [4]byte
	sr.read(magic[:])
	if sr.err != nil {
		return nil, sr.corrupt("missing magic")
	}
	if string(magic[:]) != Magic {
		return nil, sr.corrupt(fmt.Sprintf("bad magic %q", magic[:]))
	}
	ver := sr.U64()
	if sr.err != nil {
		return nil, sr.corrupt("missing version")
	}
	if ver != Version {
		return nil, &VersionError{Got: ver, Want: Version}
	}
	return sr, nil
}

func (r *Reader) corrupt(reason string) error {
	ce := &CorruptError{Offset: r.off, Reason: reason}
	if r.err == nil || !isCorrupt(r.err) {
		r.err = ce
	}
	return r.err
}

func isCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	n, err := io.ReadFull(r.r, p)
	r.off += int64(n)
	if err != nil {
		r.err = &CorruptError{Offset: r.off, Reason: "truncated stream: " + err.Error()}
		return
	}
	r.crc = crc64.Update(r.crc, crcTable, p)
}

// ReadByte implements io.ByteReader for varint decoding.
func (r *Reader) ReadByte() (byte, error) {
	var b [1]byte
	r.read(b[:])
	if r.err != nil {
		return 0, r.err
	}
	return b[0], nil
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r)
	if err != nil && r.err == nil {
		r.err = &CorruptError{Offset: r.off, Reason: "bad varint: " + err.Error()}
	}
	return v
}

// Int reads a non-negative int.
func (r *Reader) Int() int {
	v := r.U64()
	if v > uint64(int(^uint(0)>>1)) {
		r.corrupt(fmt.Sprintf("int out of range: %d", v))
		return 0
	}
	return int(v)
}

// Bool reads a 0/1 byte; any other value is corruption.
func (r *Reader) Bool() bool {
	switch r.U64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.corrupt("bool out of range")
		return false
	}
}

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n > maxBlob {
		r.corrupt(fmt.Sprintf("byte string of %d exceeds limit", n))
		return nil
	}
	p := make([]byte, n)
	r.read(p)
	if r.err != nil {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Val reads a sized bit vector written by Writer.Val.
func (r *Reader) Val() val.Value {
	w := r.Int()
	if w == 0 || r.err != nil {
		return val.Value{}
	}
	bits := r.U64()
	if r.err != nil {
		return val.Value{}
	}
	if w > val.MaxWidth {
		r.corrupt(fmt.Sprintf("value width %d out of range", w))
		return val.Value{}
	}
	if bits != val.New(bits, w).Uint() {
		r.corrupt(fmt.Sprintf("value %#x overflows width %d", bits, w))
		return val.Value{}
	}
	return val.New(bits, w)
}

// Err reports the first decoding error, if any, without consuming the
// trailer. Codec code can use it to bail out of loops early.
func (r *Reader) Err() error { return r.err }

// Finish validates the checksum trailer and requires the stream to end
// exactly there. It returns the first error seen on the stream.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc // read() below folds the trailer in; capture first
	var tail [8]byte
	if _, err := io.ReadFull(r.r, tail[:]); err != nil {
		r.off += 8
		return r.corrupt("truncated checksum trailer")
	}
	r.off += 8
	got := binary.LittleEndian.Uint64(tail[:])
	if got != want {
		return r.corrupt(fmt.Sprintf("checksum mismatch: stream %#x, computed %#x", got, want))
	}
	var one [1]byte
	if n, err := r.r.Read(one[:]); n != 0 || err == nil {
		return r.corrupt("trailing bytes after checksum")
	}
	return nil
}
