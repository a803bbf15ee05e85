package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// A checkpoint names an instant of a run and fingerprints the state there;
// it holds none of that state. A run is a function of its flags, so the
// run rebuilt from the same flags and re-simulated to the instant is the
// checkpointed state. -resume does exactly that: it runs the identical
// loop from t=0, so every output equals the uninterrupted run's, and when
// it reaches the recorded cut it compares the fingerprint (DESIGN.md §13).

// Magic identifies a checkpoint record ("EVCK").
const Magic = uint32(0x4556434b)

// FormatVersion is the record layout's version. Bump it on any change
// to the layout or to what a fingerprint hashes; decode refuses any other
// version.
const FormatVersion = uint32(4)

// recordLen is the size of the one fixed-size record: magic, version,
// config digest, cut, fired, stats hash, metrics hash, CRC32.
const recordLen = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4

// record is what a checkpoint file holds.
type record struct {
	digest  uint64   // the config digest of the run that wrote it
	cut     sim.Time // the instant
	fired   uint64   // Scheduler.Fired() at the cut
	stats   uint64   // Digest of the switch's Stats at the cut
	metrics uint64   // Digest of the registry snapshot; 0 without telemetry
}

// encode lays the record out little-endian, with a CRC32 of everything
// before it last.
func (r record) encode() []byte {
	b := make([]byte, 0, recordLen)
	b = binary.LittleEndian.AppendUint32(b, Magic)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	for _, v := range [...]uint64{r.digest, uint64(r.cut), r.fired, r.stats, r.metrics} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// decode parses an encoded record. Whatever the bytes, it returns a
// record or an error; a torn or bit-flipped file is an error.
func decode(b []byte) (record, error) {
	le := binary.LittleEndian
	switch {
	case len(b) != recordLen:
		return record{}, fmt.Errorf("checkpoint: %d bytes, a record is %d", len(b), recordLen)
	case le.Uint32(b) != Magic:
		return record{}, fmt.Errorf("checkpoint: bad magic %#x (not a checkpoint file)", le.Uint32(b))
	case le.Uint32(b[4:]) != FormatVersion:
		return record{}, fmt.Errorf("checkpoint: format version %d, this build reads %d", le.Uint32(b[4:]), FormatVersion)
	case le.Uint32(b[recordLen-4:]) != crc32.ChecksumIEEE(b[:recordLen-4]):
		return record{}, fmt.Errorf("checkpoint: CRC mismatch (file corrupt)")
	}
	return record{
		digest: le.Uint64(b[8:]), cut: sim.Time(le.Uint64(b[16:])), fired: le.Uint64(b[24:]),
		stats: le.Uint64(b[32:]), metrics: le.Uint64(b[40:]),
	}, nil
}

// readRecord reads and decodes a checkpoint file.
func readRecord(path string) (record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return record{}, fmt.Errorf("checkpoint: %w", err)
	}
	r, err := decode(b)
	if err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// writeRecord writes b atomically: to a temp file in the destination
// directory, fsync, then rename over the target. A crash (or SIGKILL)
// mid-write leaves either the previous record or none, never a torn file.
func writeRecord(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
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
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Digest is FNV-1a over parts, each followed by a 0xff separator so
// ("ab", "c") and ("a", "bc") differ. It is not cryptographic; it
// catches resuming under different flags and a replay that diverges.
func Digest(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// fingerprint is the record of st at the instant cut.
func fingerprint(st *simState, cut sim.Time) record {
	r := record{
		digest: st.cfg.digest(), cut: cut, fired: st.sched.Fired(),
		stats: Digest(fmt.Sprintf("%+v", st.sw.Stats())),
	}
	if st.tel != nil {
		r.metrics = Digest(fmt.Sprintf("%+v", st.tel.Registry().Snapshot()))
	}
	return r
}

// cutter stops the run loop at the checkpoint instants: every multiple of
// -checkpoint-every, where it writes a record, and on a resume the
// recorded cut, where it verifies the replay. The scheduler has run to the
// instant and is idle when at is called, so nothing is mid-event.
type cutter struct {
	st   *simState
	errw io.Writer

	every sim.Time // 0: write no records
	next  sim.Time // the next instant to write
	path  string

	resume     *record // the cut a resume must reach and match; nil once it has
	resumePath string
}

// nextStop returns the next instant the run must stop at.
func (c *cutter) nextStop() sim.Time {
	t := sim.Time(math.MaxInt64)
	if c.every > 0 {
		t = c.next
	}
	if c.resume != nil {
		t = min(t, c.resume.cut)
	}
	return t
}

// at handles the stop at instant t. Records the replay writes before it
// has verified the recorded cut would only move the file backwards, so
// it writes none until then.
func (c *cutter) at(t sim.Time) error {
	if c.resume != nil && t == c.resume.cut {
		if rec, want := fingerprint(c.st, t), *c.resume; rec != want {
			return fmt.Errorf("checkpoint %s: the replay diverges at its cut t=%v "+
				"(fired %d, recorded %d; stats %#x, recorded %#x; metrics %#x, recorded %#x)",
				c.resumePath, t, rec.fired, want.fired, rec.stats, want.stats, rec.metrics, want.metrics)
		}
		fmt.Fprintf(c.errw, "evsim: resumed from %s at t=%v\n", c.resumePath, t)
		c.resume = nil
	}
	if c.every == 0 || t != c.next {
		return nil
	}
	c.next += c.every
	if c.resume != nil {
		return nil
	}
	start := time.Now()
	b := fingerprint(c.st, t).encode()
	if err := writeRecord(c.path, b); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	if p := c.st.sched.Self(); p != nil {
		p.CheckpointWriteNS.Observe(uint64(time.Since(start).Nanoseconds()))
		p.CheckpointBytes.Add(uint64(len(b)))
		p.CheckpointLastUnixNS.Set(time.Now().UnixNano())
	}
	return nil
}

// unreached is the error for a resume whose recorded cut the run ended
// before reaching, or nil.
func (c *cutter) unreached() error {
	if c.resume == nil {
		return nil
	}
	return fmt.Errorf("checkpoint %s: its cut t=%v is never reached by this run", c.resumePath, c.resume.cut)
}
