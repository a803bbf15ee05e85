package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fields is one of everything the Codec walks; walk names them once, the
// way a component's Checkpoint method does.
type fields struct {
	u8   uint8
	t, f bool
	u32  uint32
	u64  uint64
	i64  int64
	i    int
	b, e []byte
	s    string
}

func (v *fields) walk(c *Codec) {
	c.U8(&v.u8)
	c.Bool(&v.t)
	c.Bool(&v.f)
	c.U32(&v.u32)
	c.U64(&v.u64)
	c.I64(&v.i64)
	c.Int(&v.i)
	c.Bytes(&v.b)
	c.Bytes(&v.e)
	c.String(&v.s)
}

func TestCodecRoundTrip(t *testing.T) {
	in := fields{u8: 0xab, t: true, u32: 0xdeadbeef, u64: 1 << 62, i64: -42, i: -7, b: []byte{1, 2, 3}, s: "hello"}
	e := NewSaver()
	in.walk(e)
	if e.Loading() || e.Loaded() {
		t.Error("a saver reports Loading")
	}

	out := fields{t: false, f: true, b: make([]byte, 0, 16)}
	keep := out.b[:1]
	d := NewLoader(e.Saved())
	out.walk(d)
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
	if !d.Loading() || !d.Loaded() {
		t.Error("a clean loader does not report Loaded")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in %+v\nout %+v", in, out)
	}
	// Bytes copies into the capacity it is handed and never aliases the
	// section buffer.
	if &keep[0] != &out.b[0] {
		t.Error("Bytes did not reuse the target's capacity")
	}
	e.Saved()[len(e.Saved())-1] ^= 0xff
	if out.s != "hello" || !bytes.Equal(out.b, []byte{1, 2, 3}) {
		t.Error("loaded values alias the section buffer")
	}
}

func TestDecoderDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		v := fields{u64: 12345, s: "section", i64: -1}
		e := NewSaver()
		v.walk(e)
		return e.Saved()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("same fields encoded to different bytes")
	}
}

// TestDecoderStickyError verifies a truncated read poisons every later
// read and leaves the targets as they were instead of filling in garbage.
func TestDecoderStickyError(t *testing.T) {
	e := NewSaver()
	seven := uint32(7)
	e.U32(&seven)
	d := NewLoader(e.Saved())
	u64, u32, name := uint64(99), uint32(98), "kept"
	d.U64(&u64) // needs 8 bytes, only 4 present
	if d.Err() == nil {
		t.Fatal("truncated U64 read did not set the error")
	}
	d.U32(&u32)
	d.String(&name)
	if u64 != 99 || u32 != 98 || name != "kept" {
		t.Errorf("reads after the error assigned: %d %d %q", u64, u32, name)
	}
	if d.Loaded() {
		t.Error("a failed loader reports Loaded")
	}
	want := d.Err()
	d.Fail(os.ErrInvalid)
	if d.Err() != want {
		t.Error("Fail overwrote the first error")
	}
}

func TestDecoderBytesFieldHugeLength(t *testing.T) {
	e := NewSaver()
	huge := uint32(1 << 30) // length prefix far past the buffer
	e.U32(&huge)
	var b []byte
	d := NewLoader(e.Saved())
	if d.Bytes(&b); b != nil {
		t.Errorf("Bytes = %d bytes, want nil", len(b))
	}
	if d.Err() == nil {
		t.Error("oversized length prefix did not set the error")
	}
}

// TestShapePrimitives pins the two ways a walk reads a shape: a fixed
// datum must equal the rebuilt object's (the error names both), and a
// variable length comes back bounded by the bytes left behind it.
func TestShapePrimitives(t *testing.T) {
	shape := func(c *Codec, n, m int, on bool, name string, pol uint8, key uint64) (int, int) {
		c.FixedInt("rig: timers", n)
		c.FixedU32("rig: banks", m)
		c.FixedBool("rig: program", on)
		c.FixedString("rig: table", name)
		c.FixedU8("rig: policy", pol)
		c.FixedU64("rig: key", key)
		return c.Len(n), c.Len32(m)
	}
	e := NewSaver()
	shape(e, 3, 2, true, "acl", 1, 0xfeed)
	pad := make([]byte, 3)
	e.Bytes(&pad) // 7 bytes behind the lengths
	d := NewLoader(e.Saved())
	if n, m := shape(d, 3, 2, true, "acl", 1, 0xfeed); d.Err() != nil || n != 3 || m != 2 {
		t.Fatalf("matching shape: lengths %d %d, err %v", n, m, d.Err())
	}
	for _, tc := range []struct {
		want string
		load func(*Codec) (int, int)
	}{
		{"rig: timers: snapshot has 3, rebuilt run has 4", func(d *Codec) (int, int) { return shape(d, 4, 2, true, "acl", 1, 0xfeed) }},
		{"rig: banks: snapshot has 0x2, rebuilt run has 0x5", func(d *Codec) (int, int) { return shape(d, 3, 5, true, "acl", 1, 0xfeed) }},
		{"rig: program: snapshot has true, rebuilt run has false", func(d *Codec) (int, int) { return shape(d, 3, 2, false, "acl", 1, 0xfeed) }},
		{`rig: table: snapshot has "acl", rebuilt run has "nat"`, func(d *Codec) (int, int) { return shape(d, 3, 2, true, "nat", 1, 0xfeed) }},
		{"rig: policy: snapshot has 0x1, rebuilt run has 0x2", func(d *Codec) (int, int) { return shape(d, 3, 2, true, "acl", 2, 0xfeed) }},
		{"rig: key: snapshot has 0xfeed, rebuilt run has 0xbeef", func(d *Codec) (int, int) { return shape(d, 3, 2, true, "acl", 1, 0xbeef) }},
	} {
		d := NewLoader(e.Saved())
		n, m := tc.load(d)
		if d.Err() == nil || d.Err().Error() != tc.want {
			t.Errorf("error = %v, want %q", d.Err(), tc.want)
		}
		if n != 0 || m != 0 {
			t.Errorf("%s: lengths after the failure = %d, %d, want 0", tc.want, n, m)
		}
	}

	// A length is refused when negative or larger than what is left: 1<<40
	// and -1 as 8 bytes, 1<<31 as 4, and one more than the bytes behind it.
	for _, tc := range []struct {
		n    int
		wide bool
		tail int
	}{{1 << 40, true, 64}, {-1, true, 64}, {1 << 31, false, 64}, {65, true, 64}, {65, false, 64}} {
		e := NewSaver()
		if tc.wide {
			e.Len(tc.n)
		} else {
			e.Len32(tc.n)
		}
		d := NewLoader(append(e.Saved(), make([]byte, tc.tail)...))
		got := -1
		if tc.wide {
			got = d.Len(0)
		} else {
			got = d.Len32(0)
		}
		if got != 0 || d.Err() == nil {
			t.Errorf("length %d (wide=%v) with %d bytes left: got %d, err %v", tc.n, tc.wide, tc.tail, got, d.Err())
		}
	}
	e = NewSaver()
	e.Len(64)
	if d = NewLoader(append(e.Saved(), make([]byte, 64)...)); d.Len(0) != 64 || d.Err() != nil {
		t.Errorf("a length equal to the bytes left was refused: %v", d.Err())
	}
}

func TestFileRoundTrip(t *testing.T) {
	f := New(0x1234)
	f.Add("alpha", []byte("first"))
	f.Add("beta", nil)
	f.Add("gamma", bytes.Repeat([]byte{0xcc}, 1000))

	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g.ConfigDigest != 0x1234 {
		t.Errorf("ConfigDigest = %#x", g.ConfigDigest)
	}
	if names := g.names; len(names) != 3 || names[0] != "alpha" || names[1] != "beta" || names[2] != "gamma" {
		t.Errorf("section names = %v", names)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		want, _ := f.Section(name)
		got, ok := g.Section(name)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("section %s: got %d bytes, want %d", name, len(got), len(want))
		}
	}
}

func TestFileRejectsCorruption(t *testing.T) {
	f := New(1)
	f.Add("state", []byte("payload bytes here"))
	enc := f.Encode()

	if _, err := Decode(enc[:len(enc)-3]); err == nil {
		t.Error("truncated file decoded")
	}

	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-7] ^= 0x01 // inside the section payload
	if _, err := Decode(flipped); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("bit flip not caught by CRC: %v", err)
	}

	notMagic := append([]byte(nil), enc...)
	notMagic[0] ^= 0xff
	if _, err := Decode(notMagic); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not refused: %v", err)
	}

	badVer := append([]byte(nil), enc...)
	badVer[4] ^= 0xff // format version field
	if _, err := Decode(badVer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch not refused: %v", err)
	}
}

func TestDuplicateSectionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate section name did not panic")
		}
	}()
	f := New(0)
	f.Add("x", nil)
	f.Add("x", nil)
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	f := New(9)
	f.Add("s", []byte("v1"))
	if _, err := f.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	g := New(9)
	g.Add("s", []byte("v2"))
	if _, err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	h, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if b, _ := h.Section("s"); !bytes.Equal(b, []byte("v2")) {
		t.Errorf("section = %q, want v2", b)
	}
	// No temp litter left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("dir has %d entries after writes, want 1", len(entries))
	}
}

func TestDigestSeparated(t *testing.T) {
	if Digest("ab", "c") == Digest("a", "bc") {
		t.Error("Digest does not separate parts")
	}
	if Digest("x") != Digest("x") {
		t.Error("Digest not deterministic")
	}
	if Digest("x") == Digest("y") {
		t.Error("distinct inputs collide trivially")
	}
}

// TestDecodeRefusesDuplicateSection feeds Decode a CRC-valid file that
// carries one section twice. Add panics on a duplicate because a caller
// adding one is a wiring bug; a file is not a caller, so Decode reports it.
func TestDecodeRefusesDuplicateSection(t *testing.T) {
	f := New(7)
	f.Add("state", []byte("payload"))
	enc := f.Encode()
	const header = 4 + 4 + 8 + 4 // magic, version, digest, section count
	twice := append(append([]byte(nil), enc...), enc[header:]...)
	twice[header-4] = 2
	if _, err := Decode(twice); err == nil || !strings.Contains(err.Error(), `repeats the name "state"`) {
		t.Errorf("duplicate section: err = %v", err)
	}
}

// FuzzDecode is the EVCK fuzzer: whatever the bytes, Decode returns a file
// or an error, and a file it accepts re-encodes to bytes that decode to
// the same digest and sections.
func FuzzDecode(f *testing.F) {
	small := New(0x1234)
	small.Add("clock", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	small.Add("empty", nil)
	enc := small.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-5])
	f.Add(append(append([]byte(nil), enc...), enc[20:]...)) // sections twice, count not bumped
	f.Add(New(0).Encode())
	f.Add([]byte("EVCK"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, err := Decode(buf)
		if err != nil {
			return
		}
		b, err := Decode(a.Encode())
		if err != nil {
			t.Fatalf("re-encoded file does not decode: %v", err)
		}
		if a.ConfigDigest != b.ConfigDigest || !reflect.DeepEqual(a.names, b.names) {
			t.Fatalf("re-encoded file decodes to digest %#x sections %q, want %#x %q", b.ConfigDigest, b.names, a.ConfigDigest, a.names)
		}
		for _, name := range a.names {
			pa, _ := a.Section(name)
			pb, _ := b.Section(name)
			if !bytes.Equal(pa, pb) {
				t.Fatalf("section %q changed across re-encode", name)
			}
		}
	})
}
