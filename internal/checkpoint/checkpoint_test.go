package checkpoint

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 62)
	e.I64(-42)
	e.Int(-7)
	e.F64(math.Pi)
	e.BytesField([]byte{1, 2, 3})
	e.BytesField(nil)
	e.String("hello")

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 1<<62 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := d.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := d.BytesField(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("BytesField = %v", v)
	}
	if v := d.BytesField(); len(v) != 0 {
		t.Errorf("empty BytesField = %v", v)
	}
	if v := d.String(); v != "hello" {
		t.Errorf("String = %q", v)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.U64(12345)
		e.String("section")
		e.F64(0.25)
		return e.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("same fields encoded to different bytes")
	}
}

// TestDecoderStickyError verifies a truncated read poisons every later
// read and zero values come back instead of garbage.
func TestDecoderStickyError(t *testing.T) {
	e := NewEncoder()
	e.U32(7)
	d := NewDecoder(e.Bytes())
	d.U64() // needs 8 bytes, only 4 present
	if d.Err() == nil {
		t.Fatal("truncated U64 read did not set the error")
	}
	if v := d.U32(); v != 0 {
		t.Errorf("read after error = %d, want 0", v)
	}
	want := d.Err()
	d.Fail(os.ErrInvalid)
	if d.Err() != want {
		t.Error("Fail overwrote the first error")
	}
}

func TestDecoderBytesFieldHugeLength(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 30) // length prefix far past the buffer
	d := NewDecoder(e.Bytes())
	if b := d.BytesField(); b != nil {
		t.Errorf("BytesField = %d bytes, want nil", len(b))
	}
	if d.Err() == nil {
		t.Error("oversized length prefix did not set the error")
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
	if names := g.Names(); len(names) != 3 || names[0] != "alpha" || names[1] != "beta" || names[2] != "gamma" {
		t.Errorf("Names = %v", names)
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
