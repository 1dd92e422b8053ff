package snapshot

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"slices"
	"time"
)

// Encoder appends primitive values to a buffer. Integers are
// varint-encoded (the dominant fields — ranks, counts, sequence numbers —
// are small), strings and byte slices are length-prefixed, and times carry
// an explicit zero flag so time.Time{} survives a round trip exactly.
//
// An encoder from NewEncoder grows its buffer and hands the bytes back
// through Bytes. One from NewDigestEncoder never holds more than
// digestBufSize bytes: it streams the same bytes into SHA-256 and hands
// back only their Digest, so attesting a section costs one fixed buffer
// however large the section is.
type Encoder struct {
	b []byte
	h hash.Hash // digest sink; nil for a byte encoder
	n uint64    // bytes already flushed into h
}

// digestBufSize is a digest encoder's buffer: 64 SHA-256 blocks per Write.
const digestBufSize = 4096

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewDigestEncoder returns an empty encoder that streams into SHA-256.
func NewDigestEncoder() *Encoder {
	return &Encoder{b: make([]byte, 0, digestBufSize), h: sha256.New()}
}

// Bytes returns the encoded buffer of an encoder from NewEncoder.
func (e *Encoder) Bytes() []byte { return e.b }

// Digest returns uvarint(n) followed by the SHA-256 of the n bytes encoded
// so far, for an encoder from NewDigestEncoder: what a checkpoint stores
// for an attested section. A byte encoder given the same values would have
// built exactly those n bytes.
func (e *Encoder) Digest() []byte {
	e.flush()
	return e.h.Sum(binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+sha256.Size), e.n))
}

// flush moves a digest encoder's buffer into the hash.
func (e *Encoder) flush() {
	e.h.Write(e.b)
	e.n += uint64(len(e.b))
	e.b = e.b[:0]
}

// reserve makes room for one fixed-width value of at most
// binary.MaxVarintLen64 bytes: a digest encoder flushes first when its
// buffer could not take it.
func (e *Encoder) reserve() {
	if e.h != nil && len(e.b) > digestBufSize-binary.MaxVarintLen64 {
		e.flush()
	}
}

// appendRaw appends p; a digest encoder copies it through its buffer a
// bufferful at a time, so a long value never grows the buffer.
func appendRaw[T string | []byte](e *Encoder, p T) {
	if e.h != nil {
		for len(e.b)+len(p) > digestBufSize {
			n := copy(e.b[len(e.b):digestBufSize], p)
			e.b = e.b[:digestBufSize]
			p = p[n:]
			e.flush()
		}
	}
	e.b = append(e.b, p...)
}

// Uint appends an unsigned varint.
func (e *Encoder) Uint(v uint64) {
	e.reserve()
	e.b = binary.AppendUvarint(e.b, v)
}

// Int appends a signed (zig-zag) varint.
func (e *Encoder) Int(v int64) {
	e.reserve()
	e.b = binary.AppendVarint(e.b, v)
}

// Bool appends one byte.
func (e *Encoder) Bool(v bool) {
	e.reserve()
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Float appends a float64 as 8 fixed little-endian bytes.
func (e *Encoder) Float(v float64) {
	e.reserve()
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uint(uint64(len(s)))
	appendRaw(e, s)
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(p []byte) {
	e.Uint(uint64(len(p)))
	appendRaw(e, p)
}

// Time appends a zero flag plus UnixNano. Only times representable as
// nanoseconds since 1970 round-trip exactly; the simulation's virtual
// timeline (2014–2017) is comfortably inside that range.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.Bool(true)
		return
	}
	e.Bool(false)
	e.Int(t.UnixNano())
}

// Duration appends a signed varint of nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Int(int64(d)) }

// Decoder reads the Encoder's formats back with a sticky error: the first
// malformed field poisons the decoder, every later read returns a zero
// value, and the caller checks Err once at the end. All length fields are
// validated against the bytes actually remaining before any slice is made,
// so corrupt input cannot trigger huge allocations.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many undecoded bytes are left.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, d.off)
	}
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint.
func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Bool reads one byte.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Remaining() < 1 {
		d.fail("truncated bool")
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool")
		return false
	}
	return v == 1
}

// Float reads 8 fixed bytes.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Fixed32 reads a 4-byte little-endian uint32 (section CRCs).
func (d *Decoder) Fixed32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail("truncated uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// Raw returns the next n bytes without copying. n must already be
// validated; Raw re-checks and poisons the decoder rather than panicking.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.fail("length past end of input")
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// String reads a length-prefixed string, capping the length against the
// remaining input before allocating.
func (d *Decoder) String() string {
	n := d.Uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length past end of input")
		return ""
	}
	return string(d.Raw(int(n)))
}

// Blob reads a length-prefixed byte slice (copied, so the result outlives
// the input buffer).
func (d *Decoder) Blob() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("blob length past end of input")
		return nil
	}
	p := d.Raw(int(n))
	if p == nil {
		return nil
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out
}

// Time reads the zero flag plus UnixNano.
func (d *Decoder) Time() time.Time {
	if d.Bool() {
		return time.Time{}
	}
	n := d.Int()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// Duration reads a signed varint of nanoseconds.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Int()) }

// Count reads a collection length and sanity-caps it: each element costs at
// least elemMin encoded bytes, so any count beyond Remaining()/elemMin is
// structurally impossible and poisons the decoder before the caller
// allocates a slice proportional to it. elemMin values below 1 are treated
// as 1.
func (d *Decoder) Count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	n := d.Uint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/elemMin) {
		d.fail("collection count exceeds input capacity")
		return 0
	}
	return int(n)
}

// SortedKeys returns m's keys in ascending order. Section encoders walk
// maps in this order, so equal state encodes to equal bytes.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
