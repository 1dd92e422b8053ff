package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestContainerRoundTrip(t *testing.T) {
	f := New()
	f.Add("alpha", []byte("first section"))
	f.Add("beta", nil)
	f.Add("gamma", bytes.Repeat([]byte{0x5a}, 4096))

	data := Encode(f)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Version != Version {
		t.Fatalf("version = %d, want %d", got.Version, Version)
	}
	if len(got.Sections) != 3 {
		t.Fatalf("sections = %d, want 3", len(got.Sections))
	}
	for i, s := range f.Sections {
		g := got.Sections[i]
		if g.Name != s.Name || !bytes.Equal(g.Data, s.Data) {
			t.Errorf("section %d mismatch: %q/%d bytes", i, g.Name, len(g.Data))
		}
	}
	// Encode of the decoded container is byte-stable.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encode is not byte-identical")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte("NOPE....")); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrMagic) {
		t.Fatalf("empty input err = %v, want ErrMagic", err)
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	f := &File{Version: Version + 1}
	f.Add("s", []byte("x"))
	if _, err := Decode(Encode(f)); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
}

func TestDecodeDetectsEveryFlippedBit(t *testing.T) {
	f := New()
	f.Add("payload", []byte("bytes that the CRC must cover end to end"))
	data := Encode(f)
	clean, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data)*8; i++ {
		mut := bytes.Clone(data)
		mut[i/8] ^= 1 << (i % 8)
		got, err := Decode(mut)
		if err != nil {
			continue
		}
		// A flip that still decodes must not silently change the payload.
		if len(got.Sections) == len(clean.Sections) &&
			got.Sections[0].Name == "payload" &&
			!bytes.Equal(got.Sections[0].Data, clean.Sections[0].Data) {
			t.Fatalf("bit %d: corrupted payload decoded without error", i)
		}
	}
}

func TestDecodeRejectsTruncations(t *testing.T) {
	f := New()
	f.Add("one", []byte("0123456789"))
	f.Add("two", []byte("abcdefghij"))
	data := Encode(f)
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(data))
		}
	}
	if _, err := Decode(append(bytes.Clone(data), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestDecodeCapsInsaneCounts(t *testing.T) {
	// A hand-built header claiming 2^40 sections in a 32-byte file must be
	// rejected before any proportional allocation.
	e := NewEncoder()
	e.Uint(Version)
	e.Uint(1 << 40)
	data := append([]byte(Magic), e.Bytes()...)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	f := New()
	f.Add("state", []byte{1, 2, 3})
	path := filepath.Join(t.TempDir(), "ck.twsnap")
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := got.Section("state"); !ok || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("section = %v, %v", data, ok)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file read without error")
	}
}

// TestWriteFileFailureLeavesNoTemp: when the final rename fails — here
// because the target path is an existing directory — WriteFile reports the
// error and removes its temp file instead of leaving it in the directory.
func TestWriteFileFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "ck.twsnap")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	f := New()
	f.Add("state", []byte{1, 2, 3})
	if err := WriteFile(target, f); err == nil {
		t.Fatal("WriteFile onto a directory succeeded")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".snapshot-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("failed write left temp files behind: %v", leftovers)
	}
}

// TestPrimitiveRoundTrip drives the codec primitives with generated values.
func TestPrimitiveRoundTrip(t *testing.T) {
	prop := func(u uint64, i int64, b bool, fl float64, s string, blob []byte, nanos int64, dur int64) bool {
		e := NewEncoder()
		e.Uint(u)
		e.Int(i)
		e.Bool(b)
		e.Float(fl)
		e.String(s)
		e.Blob(blob)
		tm := time.Unix(0, nanos).UTC()
		e.Time(tm)
		e.Time(time.Time{})
		e.Duration(time.Duration(dur))

		d := NewDecoder(e.Bytes())
		if d.Uint() != u || d.Int() != i || d.Bool() != b {
			return false
		}
		gotF := d.Float()
		if gotF != fl && !(math.IsNaN(gotF) && math.IsNaN(fl)) {
			return false
		}
		if d.String() != s {
			return false
		}
		gotBlob := d.Blob()
		if !bytes.Equal(gotBlob, blob) {
			return false
		}
		if !d.Time().Equal(tm) || !d.Time().IsZero() {
			return false
		}
		if d.Duration() != time.Duration(dur) {
			return false
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// byteDigest is what a digest encoder must return for the byte image b.
func byteDigest(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(binary.AppendUvarint(nil, uint64(len(b))), sum[:]...)
}

// sameDigest feeds emit to a byte encoder and a digest encoder and fails
// unless the streamed digest equals the digest of the byte image.
func sameDigest(t *testing.T, label string, emit func(e *Encoder)) bool {
	t.Helper()
	be, de := NewEncoder(), NewDigestEncoder()
	emit(be)
	emit(de)
	if got, want := de.Digest(), byteDigest(be.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("%s: streamed digest %x, byte image (%d bytes) digests to %x", label, got, len(be.Bytes()), want)
		return false
	}
	return true
}

// TestDigestEncoderMatchesBytes: random sequences of every primitive
// digest the same through the streaming sink as through the byte encoder,
// as do the edges of its fixed buffer — nothing at all, a value that ends
// exactly at either flush threshold, and strings and blobs several
// buffers long.
func TestDigestEncoderMatchesBytes(t *testing.T) {
	sameDigest(t, "empty", func(*Encoder) {})

	// A string whose encoding (2-byte length prefix plus body) ends exactly
	// at byte end, then values that must go to the next buffer.
	for _, end := range []int{
		digestBufSize - binary.MaxVarintLen64 - 1, digestBufSize - binary.MaxVarintLen64,
		digestBufSize - binary.MaxVarintLen64 + 1, digestBufSize - 1, digestBufSize, digestBufSize + 1,
	} {
		body := string(bytes.Repeat([]byte{'x'}, end-2))
		sameDigest(t, fmt.Sprintf("value ending at byte %d", end), func(e *Encoder) {
			e.String(body)
			e.Uint(math.MaxUint64)
			e.Float(math.Pi)
		})
		sameDigest(t, fmt.Sprintf("buffer ending at byte %d", end), func(e *Encoder) {
			for i := 0; i < end; i++ {
				e.Bool(i%3 == 0)
			}
		})
	}

	long := bytes.Repeat([]byte("0123456789abcdef"), 3*digestBufSize/16+7)
	sameDigest(t, "long string and blob", func(e *Encoder) {
		e.Int(-1)
		e.String(string(long))
		e.Blob(long[1:])
		e.Bool(true)
	})

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var vals []func(e *Encoder)
		for i := rng.Intn(2000); i > 0; i-- {
			switch rng.Intn(8) {
			case 0:
				v := rng.Uint64() >> rng.Intn(64)
				vals = append(vals, func(e *Encoder) { e.Uint(v) })
			case 1:
				v := rng.Int63() - rng.Int63()
				vals = append(vals, func(e *Encoder) { e.Int(v) })
			case 2:
				v := string(long[:rng.Intn(40)])
				if rng.Intn(50) == 0 {
					v = string(long[:rng.Intn(len(long))])
				}
				vals = append(vals, func(e *Encoder) { e.String(v) })
			case 3:
				v := long[rng.Intn(len(long)):]
				if rng.Intn(8) != 0 {
					v = v[:min(len(v), 16)]
				}
				vals = append(vals, func(e *Encoder) { e.Blob(v) })
			case 4:
				v := time.Unix(0, rng.Int63()).UTC()
				if rng.Intn(4) == 0 {
					v = time.Time{}
				}
				vals = append(vals, func(e *Encoder) { e.Time(v) })
			case 5:
				v := rng.NormFloat64()
				vals = append(vals, func(e *Encoder) { e.Float(v) })
			case 6:
				v := rng.Intn(2) == 0
				vals = append(vals, func(e *Encoder) { e.Bool(v) })
			default:
				v := time.Duration(rng.Int63())
				vals = append(vals, func(e *Encoder) { e.Duration(v) })
			}
		}
		return sameDigest(t, fmt.Sprintf("seed %d", seed), func(e *Encoder) {
			for _, v := range vals {
				v(e)
			}
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0xff}) // bad uvarint (no terminator)
	_ = d.Uint()
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	// Every later read is a zero value, no panic.
	if d.Uint() != 0 || d.Int() != 0 || d.Bool() || d.String() != "" || d.Blob() != nil || !d.Time().IsZero() {
		t.Fatal("poisoned decoder returned non-zero values")
	}
	if d.Count(1) != 0 {
		t.Fatal("poisoned Count returned non-zero")
	}
}

func TestCountCapsAgainstRemaining(t *testing.T) {
	e := NewEncoder()
	e.Uint(1 << 30) // claims a billion elements
	d := NewDecoder(e.Bytes())
	if d.Count(8) != 0 || d.Err() == nil {
		t.Fatal("Count accepted a structurally impossible length")
	}
}
