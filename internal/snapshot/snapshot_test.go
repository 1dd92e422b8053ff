package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

func TestCanonTime(t *testing.T) {
	if !CanonTime(time.Time{}).IsZero() {
		t.Fatal("CanonTime(zero) is not zero")
	}
	loc := time.FixedZone("X", 3600)
	in := time.Date(2016, 9, 7, 12, 30, 0, 42, loc)
	c := CanonTime(in)
	if !c.Equal(in) {
		t.Fatal("CanonTime changed the instant")
	}
	if !reflect.DeepEqual(c, CanonTime(c)) {
		t.Fatal("CanonTime is not idempotent under DeepEqual")
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
