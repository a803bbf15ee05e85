package checkpoint

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Magic identifies a checkpoint file ("EVCK").
const Magic = uint32(0x4556434b)

// FormatVersion is the checkpoint file format version. Bump on any
// incompatible layout change; Open refuses mismatched versions so a
// resume never silently misreads old state.
const FormatVersion = uint32(3)

// File is a checkpoint: a format version, a digest of the run
// configuration that produced it, and an ordered list of named sections.
// Restore refuses a file whose config digest does not match the rebuilt
// simulation: state can only be poured back into an identically
// constructed object graph.
type File struct {
	// ConfigDigest fingerprints the run configuration (flags, program
	// source, topology) the checkpoint belongs to.
	ConfigDigest uint64

	names    []string
	sections map[string][]byte
}

// New returns an empty checkpoint file for the given config digest.
func New(configDigest uint64) *File {
	return &File{ConfigDigest: configDigest, sections: make(map[string][]byte)}
}

// Add appends a named section. Adding a duplicate name panics: sections
// are written once per component, so a duplicate is a wiring bug.
func (f *File) Add(name string, payload []byte) {
	if _, ok := f.sections[name]; ok {
		panic("checkpoint: duplicate section " + name)
	}
	f.names = append(f.names, name)
	f.sections[name] = payload
}

// Section returns the payload of a named section.
func (f *File) Section(name string) ([]byte, bool) {
	b, ok := f.sections[name]
	return b, ok
}

// Encode serializes the file: header (magic, format version, config
// digest, section count), then each section as name, payload, and a
// CRC32 of both. A torn or bit-flipped file fails decode rather than
// restoring corrupt state.
func (f *File) Encode() []byte {
	c := NewSaver()
	magic, version := Magic, FormatVersion
	c.U32(&magic)
	c.U32(&version)
	c.U64(&f.ConfigDigest)
	c.Len32(len(f.names))
	for _, name := range f.names {
		sc := NewSaver()
		payload := f.sections[name]
		sc.String(&name)
		sc.Bytes(&payload)
		body, sum := sc.Saved(), crc32.ChecksumIEEE(sc.Saved())
		c.Bytes(&body)
		c.U32(&sum)
	}
	return c.Saved()
}

// Decode parses an encoded checkpoint, verifying magic, format version,
// and every section CRC. Whatever the bytes are, it returns a file or an
// error: a section name that occurs twice is the file's fault, not a
// wiring bug, so it is refused here instead of reaching Add's panic.
func Decode(buf []byte) (*File, error) {
	c := NewLoader(buf)
	var magic, version uint32
	if c.U32(&magic); c.Err() == nil && magic != Magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x (not a checkpoint file)", magic)
	}
	if c.U32(&version); c.Err() == nil && version != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, this build reads %d", version, FormatVersion)
	}
	f := New(0)
	c.U64(&f.ConfigDigest)
	n := c.Len32(0)
	for i := 0; i < n; i++ {
		body := c.take(c.Len32(0))
		var sum uint32
		c.U32(&sum)
		if c.Err() != nil {
			break
		}
		if got := crc32.ChecksumIEEE(body); got != sum {
			return nil, fmt.Errorf("checkpoint: section %d CRC mismatch (file corrupt)", i)
		}
		sc := NewLoader(body)
		var name string
		var payload []byte
		sc.String(&name)
		sc.Bytes(&payload)
		if sc.Err() != nil {
			return nil, fmt.Errorf("checkpoint: section %d: %w", i, sc.Err())
		}
		if _, dup := f.sections[name]; dup {
			return nil, fmt.Errorf("checkpoint: section %d repeats the name %q (file corrupt)", i, name)
		}
		f.Add(name, payload)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFile writes the checkpoint atomically: encode to a temp file in
// the destination directory, fsync, then rename over the target. A crash
// (or SIGKILL) mid-write leaves either the previous checkpoint or none —
// never a torn file. It returns the number of bytes written.
func (f *File) WriteFile(path string) (int, error) {
	buf := f.Encode()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("checkpoint: rename: %w", err)
	}
	return len(buf), nil
}

// Open reads and decodes a checkpoint file.
func Open(path string) (*File, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return f, nil
}

// Digest fingerprints a run configuration with FNV-1a over its string
// rendering. It is not cryptographic; it exists to catch resuming a
// checkpoint under different flags or a different program source.
func Digest(parts ...string) uint64 {
	const (
		offset = uint64(14695981039346656037)
		prime  = uint64(1099511628211)
	)
	h := offset
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0xff // separator so ("ab","c") != ("a","bc")
		h *= prime
	}
	return h
}
