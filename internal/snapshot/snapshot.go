// Package snapshot is the compact, versioned binary container every piece
// of durable Tripwire state travels in: the study checkpoints a run writes
// at an epoch boundary, and the cold login-log segments the email provider
// spills to disk. A study checkpoint stores verbatim only what resume
// reads back (its config and progress); every other subsystem section is
// attested by its length and SHA-256, so a checkpoint stays about a
// kilobyte at any study size.
//
// A snapshot file is a magic tag, a format version, and a sequence of
// named, length-prefixed sections, each protected by its own CRC-32. The
// container knows nothing about what a section means — subsystems encode
// their state with the Encoder/Decoder primitives in codec.go and register
// the bytes, or a digest encoder's Digest of them, under a section name. That split keeps the format honest:
// decoding is pure (no domain imports), corruption is detected per section
// with the section name in the error, and a version bump never requires
// touching every subsystem at once.
//
// Version policy: Decode accepts exactly the versions it knows how to
// read. A file written by a newer format version fails with
// ErrVersionSkew rather than being misread. An older file decodes, and the
// consumer whose section layout changed since refuses it by version (sim
// checkpoints must match Version exactly; login-log spill segments have
// kept their layout).
//
// Every decode path is hardened against hostile input: all length fields
// are sanity-capped against the bytes actually remaining before any
// allocation happens, so a truncated or bit-flipped file returns an error
// instead of panicking or ballooning memory (FuzzSnapshotDecode pins
// this).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic opens every snapshot file.
const Magic = "TWSN"

// Version is the current format version, bumped on any layout change.
// v2: the sim config section gained an attacker-timing flag.
// v3: the sim config section merged its two worker counts into one and
// dropped that flag.
// v4: sim checkpoints store each attested state section as
// uvarint(length) followed by the SHA-256 of its bytes, instead of the
// bytes; the config section dropped its eager-accounts flag.
// v5: the ledger image keeps a returned identity as its index, extending
// the pool's last span when adjacent, instead of as a whole identity.
// v6: the monitor image drops its flat attributed-login list; each
// attributed login is stored once, in its detection's per-account logins.
const Version = 6

// Sanity bounds on container metadata. Section payloads are bounded by the
// file size itself (lengths are checked against remaining bytes), so only
// the name needs an absolute cap.
const maxSectionName = 256

// Decode failure modes, distinguishable with errors.Is.
var (
	// ErrMagic means the input does not start with the snapshot magic.
	ErrMagic = errors.New("snapshot: bad magic")
	// ErrVersionSkew means the file's format version is newer than this
	// build can read.
	ErrVersionSkew = errors.New("snapshot: format version newer than supported")
	// ErrCorrupt means a length field, CRC, or structural invariant failed.
	ErrCorrupt = errors.New("snapshot: corrupt")
)

// Section is one named, CRC-protected payload inside a snapshot file.
type Section struct {
	Name string
	Data []byte
}

// File is a decoded snapshot container.
type File struct {
	Version  uint16
	Sections []Section
}

// Section returns the payload of the named section.
func (f *File) Section(name string) ([]byte, bool) {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return f.Sections[i].Data, true
		}
	}
	return nil, false
}

// Add appends a section.
func (f *File) Add(name string, data []byte) {
	f.Sections = append(f.Sections, Section{Name: name, Data: data})
}

// New returns an empty container at the current format version.
func New() *File { return &File{Version: Version} }

// Encode serializes the container:
//
//	magic  "TWSN"
//	uvarint format version
//	uvarint section count
//	per section:
//	  uvarint name length, name bytes
//	  uvarint data length, data bytes
//	  uint32 little-endian CRC-32 (IEEE) of the data bytes
func Encode(f *File) []byte {
	n := len(Magic) + 2*binary.MaxVarintLen64
	for _, s := range f.Sections {
		n += 2*binary.MaxVarintLen64 + len(s.Name) + len(s.Data) + 4
	}
	b := make([]byte, 0, n)
	b = append(b, Magic...)
	b = binary.AppendUvarint(b, uint64(f.Version))
	b = binary.AppendUvarint(b, uint64(len(f.Sections)))
	for _, s := range f.Sections {
		b = binary.AppendUvarint(b, uint64(len(s.Name)))
		b = append(b, s.Name...)
		b = binary.AppendUvarint(b, uint64(len(s.Data)))
		b = append(b, s.Data...)
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(s.Data))
	}
	return b
}

// Decode parses a snapshot container, validating magic, version, every
// length field, and every section CRC. The returned sections alias data;
// callers that mutate the input must copy first.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, ErrMagic
	}
	d := NewDecoder(data[len(Magic):])
	version := d.Uint()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: unreadable version", ErrCorrupt)
	}
	if version > Version {
		return nil, fmt.Errorf("%w: file version %d, supported ≤ %d", ErrVersionSkew, version, Version)
	}
	count := d.Uint()
	if d.Err() != nil {
		return nil, fmt.Errorf("%w: unreadable section count", ErrCorrupt)
	}
	// Each section costs at least 1 (name len) + 1 (data len) + 4 (CRC)
	// bytes, so any count past remaining/6 is structurally impossible —
	// reject it before allocating anything proportional to it.
	if count > uint64(d.Remaining()/6) {
		return nil, fmt.Errorf("%w: section count %d exceeds file capacity", ErrCorrupt, count)
	}
	f := &File{Version: uint16(version)}
	f.Sections = make([]Section, 0, count)
	for i := uint64(0); i < count; i++ {
		nameLen := d.Uint()
		if d.Err() != nil || nameLen > maxSectionName || nameLen > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: section %d name length", ErrCorrupt, i)
		}
		name := string(d.Raw(int(nameLen)))
		dataLen := d.Uint()
		if d.Err() != nil || dataLen > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: section %q data length", ErrCorrupt, name)
		}
		payload := d.Raw(int(dataLen))
		sum := d.Fixed32()
		if d.Err() != nil {
			return nil, fmt.Errorf("%w: section %q truncated", ErrCorrupt, name)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: section %q CRC mismatch", ErrCorrupt, name)
		}
		f.Add(name, payload)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return f, nil
}

// WriteFile atomically and durably writes the encoded container to path:
// the bytes land in a temp file in the same directory, are fsynced, and
// the file is renamed into place; the directory is then fsynced so the
// rename itself is on disk. A crash at any point leaves either the
// previous file or the complete new one, never a half-written checkpoint.
func WriteFile(path string, f *File) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(Encode(f))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, persisting the entries renamed into it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads and decodes the container at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
