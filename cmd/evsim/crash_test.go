package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// TestExitCodes pins the exit-code contract: 0 ok, 1 runtime failure,
// 2 usage error. The crash harness and CI scripts depend on telling a
// crashed run from a misused one.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	if code := runQuiet(t, "-ms", "1", "-checkpoint-every", "500us", "-checkpoint", ckpt); code != exitOK {
		t.Fatalf("checkpointed run exited %d, want %d", code, exitOK)
	}
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, exitOK},
		{[]string{"-not-a-flag"}, exitUsage},
		{[]string{"-arch", "bogus"}, exitUsage},
		{[]string{"-ms", "0"}, exitUsage},
		{[]string{"-ports", "-2"}, exitUsage},
		{[]string{"-checkpoint-every", "1ms"}, exitUsage},                       // no -checkpoint
		{[]string{"-checkpoint-every", "soon", "-checkpoint", ckpt}, exitUsage}, // bad duration
		{[]string{"-p4", filepath.Join(dir, "missing.up4")}, exitRuntime},       // unreadable program
		{[]string{"-resume", filepath.Join(dir, "missing.ckpt")}, exitRuntime},  // unreadable checkpoint
		{[]string{"-ms", "1", "-load", "0.5", "-resume", ckpt}, exitUsage},      // digest mismatch
		{[]string{"-ms", "1", "-checkpoint-every", "500us", "-resume", ckpt}, exitOK},
		// One switch has nothing to partition, and there is one datapath:
		// neither -domains nor -burst is a flag.
		{[]string{"-domains", "2"}, exitUsage},
		{[]string{"-burst", "0"}, exitUsage},
		// Values that used to reach a panic in sim (BitTime of a
		// non-positive rate, negative delay), run outside the documented
		// range, or never finish are usage errors.
		{[]string{"-gbps", "0"}, exitUsage},
		{[]string{"-gbps", "-5"}, exitUsage},
		{[]string{"-gbps", "100000"}, exitUsage},
		{[]string{"-load", "NaN"}, exitUsage},
		{[]string{"-load", "-1"}, exitUsage},
		{[]string{"-load", "1e9"}, exitUsage},
		{[]string{"-size", "10"}, exitUsage},
		{[]string{"-size", "99999"}, exitUsage},
		{[]string{"-overspeed", "0"}, exitUsage},
		{[]string{"-overspeed", "+Inf"}, exitUsage},
		{[]string{"-ports", "100000"}, exitUsage},
	}
	for _, c := range cases {
		if got := runQuiet(t, c.args...); got != c.want {
			t.Errorf("run(%v) = %d, want %d", c.args, got, c.want)
		}
	}
}

// TestFatalHazardRefused: a program whose Enqueue control writes a
// shared register absolutely cannot run under aggregation. It is refused
// at load with exit 1 and one line naming the write, where it used to
// load, print the hazard, and die in the first Enqueue event with a
// goroutine dump.
func TestFatalHazardRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hazard.up4")
	src := "shared_register<bit<8>>(4) r;\n" +
		"control Ingress { apply { forward(std.ingress_port ^ 1); } }\n" +
		"control Enqueue { apply { r.write(0, 2); } }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code := run([]string{"-p4", path, "-ms", "1"}, &out, &errw)
	msg := errw.String()
	if code != exitRuntime || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "3:27: deferred-write") {
		t.Errorf("exit %d, want %d with one line naming the write at 3:27; stderr:\n%s", code, exitRuntime, msg)
	}
	if out.Len() != 0 {
		t.Errorf("refused program still printed:\n%s", out.String())
	}
}

func runQuiet(t *testing.T, args ...string) int {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	t.Logf("run(%v) -> %d\n%s%s", args, code, out.String(), errw.String())
	return code
}

// TestLoadZeroRefused: -load 0 is a usage error with one line. The
// saturate generator reads a zero load as line rate, so it used to run
// at -load 1 instead of offering nothing.
func TestLoadZeroRefused(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-load", "0", "-ms", "1"}, &out, &errw)
	msg := errw.String()
	if code != exitUsage || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-load must be in (0, 16]") {
		t.Errorf("exit %d, want %d with one line naming -load's range; stderr:\n%s", code, exitUsage, msg)
	}
	if out.Len() != 0 {
		t.Errorf("refused run still printed:\n%s", out.String())
	}
}

// outputs runs evsim with args in dir and returns, in order, its stdout
// and each of the files it writes under the names in files.
func outputs(t *testing.T, dir string, files []string, args ...string) []string {
	t.Helper()
	for _, f := range files {
		args = append(args, "-"+f, filepath.Join(dir, f))
	}
	var out, errw bytes.Buffer
	if code := run(args, &out, &errw); code != exitOK {
		t.Fatalf("run(%v) exited %d: %s", args, code, errw.String())
	}
	got := []string{out.String()}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(b))
	}
	return got
}

// TestResumeByteIdenticalInProcess holds a resumed run to the
// uninterrupted one in every output: stdout with its -trace slot lines,
// the -tracefile and -metrics files, and the -stream-trace and
// -stream-metrics files (flushed at every chunk, so their content does
// not depend on wall time). It runs the built-in forwarder and a µP4
// program; each is run plain, with checkpoints, and resumed from the
// last of them.
func TestResumeByteIdenticalInProcess(t *testing.T) {
	files := []string{"tracefile", "metrics", "stream-trace", "stream-metrics"}
	for _, base := range [][]string{
		{"-ms", "2", "-trace", "3", "-stream-every", "0"},
		{"-ms", "2", "-trace", "3", "-stream-every", "0", "-p4", "../../testdata/microburst.up4"},
	} {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "run.ckpt")
		with := func(extra ...string) []string { return append(append([]string{}, base...), extra...) }
		plain := outputs(t, dir, files, base...)
		if strings.Count(plain[0], "cycle=") != 3 {
			t.Fatalf("%v: want 3 slot lines on stdout:\n%s", base, plain[0])
		}
		first := outputs(t, dir, files, with("-checkpoint-every", "1ms", "-checkpoint", ckpt)...)
		rec, err := readRecord(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if rec.cut != 4*sim.Millisecond { // the horizon plus the 2 ms drain
			t.Errorf("%v: last checkpoint at t=%v, want 4ms", base, rec.cut)
		}
		resumed := outputs(t, dir, files, with("-checkpoint-every", "1ms", "-resume", ckpt)...)
		for i, name := range append([]string{"stdout"}, files...) {
			if plain[i] != first[i] || first[i] != resumed[i] {
				t.Errorf("%v: %s diverges: plain %d bytes, checkpointed %d, resumed %d",
					base, name, len(plain[i]), len(first[i]), len(resumed[i]))
			}
		}
	}
}

// recordAt builds the run cfg describes, runs it to cut in one
// Scheduler.Run call and writes the record of that instant to a file.
func recordAt(t *testing.T, cfg config, cut sim.Time) string {
	t.Helper()
	if err := finishConfig(&cfg, ""); err != nil {
		t.Fatal(err)
	}
	st, err := build(&cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st.sched.Run(cut)
	path := filepath.Join(t.TempDir(), "cut.ckpt")
	if err := writeRecord(path, fingerprint(st, cut).encode()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestResumeAnywhere is the resume-anywhere property: a resume from any
// cut — the end of the first run chunk, an instant inside a chunk, the
// end of the last chunk — prints exactly what the uninterrupted run
// prints, for the built-in forwarder and a µP4 program. The records are
// taken from a run advanced to the cut in one step, so they also hold
// the run loop's chunking to moving no event.
func TestResumeAnywhere(t *testing.T) {
	base := config{behaviour: behaviour{archName: "event", load: 0.9, size: 60, ms: 2, overspeed: 1.1,
		ports: 4, gbps: 10, seed: 1}}
	withP4 := base
	withP4.p4file = "../../testdata/microburst.up4"
	for _, cfg := range []config{base, withP4} {
		args := []string{"-ms", "2"}
		if cfg.p4file != "" {
			args = append(args, "-p4", cfg.p4file)
		}
		var plain bytes.Buffer
		if code := run(args, &plain, io.Discard); code != exitOK {
			t.Fatalf("run(%v) exited %d", args, code)
		}
		for _, cut := range []sim.Time{runChunk, sim.Millisecond + 12345, 4 * sim.Millisecond} {
			path := recordAt(t, cfg, cut)
			var out, errw bytes.Buffer
			code := run(append(append([]string{}, args...), "-resume", path), &out, &errw)
			if code != exitOK || out.String() != plain.String() {
				t.Errorf("%v resumed at t=%v: exit %d, stdout equal = %v; stderr:\n%s", args, cut, code, out.String() == plain.String(), errw.String())
			} else if want := fmt.Sprintf("resumed from %s at t=%v", path, cut); !strings.Contains(errw.String(), want) {
				t.Errorf("%v: stderr %q lacks %q", args, errw.String(), want)
			}
		}
	}
}

// TestCrashSIGKILLResume is the crash-injection differential harness:
// run the real binary with periodic checkpoints, SIGKILL it at a
// randomized instant mid-run, resume from whatever checkpoint survived,
// and require the final statistics to be byte-identical to an
// uninterrupted run with the same flags.
func TestCrashSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "evsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const horizon = "30" // ~2s wall: the kill window below always lands mid-run
	ckpt := filepath.Join(dir, "crash.ckpt")
	// The default flags load the switch at line rate, so every cut lands
	// with conveyor entries and queued frames in flight.
	flags := []string{"-ms", horizon, "-checkpoint-every", "2ms"}

	ref, err := exec.Command(bin, append(append([]string{}, flags...), "-checkpoint", filepath.Join(dir, "ref.ckpt"))...).Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cmd := exec.Command(bin, append(append([]string{}, flags...), "-checkpoint", ckpt)...)
	var crashOut bytes.Buffer
	cmd.Stdout = &crashOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint appeared within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	delay := time.Duration(rand.Int63n(int64(700 * time.Millisecond)))
	t.Logf("first checkpoint on disk; killing after %v", delay)
	time.Sleep(delay)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	err = cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("process did not die by SIGKILL (err=%v); the kill window is too slow for this machine", err)
	}

	resume := exec.Command(bin, append(append([]string{}, flags...), "-resume", ckpt)...)
	var resumedOut, resumedErr bytes.Buffer
	resume.Stdout, resume.Stderr = &resumedOut, &resumedErr
	if err := resume.Run(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resumedErr.String())
	}
	if !strings.Contains(resumedErr.String(), "resumed from") {
		t.Errorf("resume did not report its restore point: %q", resumedErr.String())
	}
	if got, want := resumedOut.String(), string(ref); got != want {
		t.Errorf("resumed run diverges from uninterrupted run:\n--- uninterrupted ---\n%s--- resumed after SIGKILL ---\n%s", want, got)
	}
	fmt.Fprintf(os.Stderr, "crash harness: killed after %v, resumed at %s\n",
		delay, strings.TrimPrefix(strings.TrimSpace(resumedErr.String()), "evsim: "))
}

// TestDigestCoversBehaviour perturbs every field of config, one at a time,
// and holds the digest to its contract: a behaviour field must move it (or
// a checkpoint could resume under different flags), an output-only field
// must not (or moving a trace file would orphan a checkpoint). The base
// has every telemetry output on, so perturbing one path keeps
// telemetryOn() where it was; the flip itself is checked last.
func TestDigestCoversBehaviour(t *testing.T) {
	base := config{
		behaviour: behaviour{archName: "event", load: 0.9, size: 60, ms: 10, overspeed: 1.1,
			ports: 4, gbps: 10, p4src: "control Ingress { apply { } }", seed: 1},
		p4file: "a.up4", traceFile: "t.jsonl", metrics: "m.json", ckptEvery: 500, ckptPath: "c.ckpt", resume: "r.ckpt",
		httpAddr: "127.0.0.1:0", streamTrace: "st.jsonl", streamMetrics: "sm.jsonl", streamEvery: time.Second,
	}
	perturb := func(v reflect.Value) {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // unexported fields
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.25)
		default:
			t.Fatalf("config has a %v field; teach this test to perturb it", v.Kind())
		}
	}
	check := func(name string, field func(*config) reflect.Value, wantMoved bool) {
		c := base
		perturb(field(&c))
		if moved := c.digest() != base.digest(); moved != wantMoved {
			t.Errorf("perturbing %s: digest moved = %v, want %v", name, moved, wantMoved)
		}
	}
	ct, bt := reflect.TypeOf(base), reflect.TypeOf(base.behaviour)
	for i := 0; i < ct.NumField(); i++ {
		if ct.Field(i).Type == bt {
			for j := 0; j < bt.NumField(); j++ {
				check("behaviour."+bt.Field(j).Name, func(c *config) reflect.Value {
					return reflect.ValueOf(c).Elem().Field(i).Field(j)
				}, true)
			}
			continue
		}
		check(ct.Field(i).Name, func(c *config) reflect.Value { return reflect.ValueOf(c).Elem().Field(i) }, false)
	}
	quiet := base
	quiet.traceFile, quiet.metrics, quiet.streamTrace, quiet.streamMetrics = "", "", "", ""
	if quiet.digest() == base.digest() {
		t.Error("turning every telemetry output off left the digest unchanged")
	}
}

// TestResumeDamageSweep feeds -resume files that are not the record of
// this run. The record as written is damaged at every offset (cut short
// there; that byte inverted), which decode must refuse. Then records that
// decode but do not hold: one whose fired count is off by one at its cut
// (CRC recomputed), one whose cut lies past the end of the run, and a
// truncated file. Each is exit 1 with one line, the first two naming the
// cut.
func TestResumeDamageSweep(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	flags := []string{"-ms", "1", "-checkpoint-every", "500us"}
	if code := run(append(append([]string{}, flags...), "-checkpoint", ckpt), &bytes.Buffer{}, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("checkpointed run exited %d", code)
	}
	buf, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != recordLen {
		t.Fatalf("record is %d bytes, want %d", len(buf), recordLen)
	}
	for off := range buf {
		if _, err := decode(buf[:off]); err == nil {
			t.Fatalf("record truncated at %d of %d decoded", off, len(buf))
		}
		damaged := append([]byte(nil), buf...)
		damaged[off] ^= 0xFF
		if _, err := decode(damaged); err == nil {
			t.Fatalf("record with byte %d inverted decoded", off)
		}
	}

	good, err := decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	offByOne, late := good, good
	offByOne.fired++
	late.cut = 5 * sim.Millisecond
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"fired.ckpt", offByOne.encode(), fmt.Sprintf("diverges at its cut t=%v", good.cut)},
		{"late.ckpt", late.encode(), "cut t=5ms is never reached"},
		{"torn.ckpt", buf[:recordLen-1], "a record is"},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.b, 0o644); err != nil {
			t.Fatal(err)
		}
		var errw bytes.Buffer
		code := run(append(append([]string{}, flags...), "-resume", path), &bytes.Buffer{}, &errw)
		if msg := errw.String(); code != exitRuntime || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
			t.Errorf("-resume %s: exit %d, want %d with one line containing %q; stderr:\n%s", c.name, code, exitRuntime, c.want, msg)
		}
	}
}

// TestRecordRoundTrip: every field of a record survives encode/decode.
func TestRecordRoundTrip(t *testing.T) {
	want := record{digest: 0x1234, cut: 3 * sim.Millisecond, fired: 1 << 40, stats: ^uint64(0), metrics: 0xcc}
	enc := want.encode()
	if len(enc) != recordLen {
		t.Fatalf("encoded %d bytes, want %d", len(enc), recordLen)
	}
	got, err := decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
}

// TestRecordRejectsCorruption: a truncated record, a bit flip, a foreign
// magic and another format version are each refused, naming the fault.
func TestRecordRejectsCorruption(t *testing.T) {
	enc := record{digest: 1, cut: sim.Millisecond, fired: 2}.encode()
	if _, err := decode(enc[:len(enc)-3]); err == nil {
		t.Error("truncated record decoded")
	}
	for _, c := range []struct {
		name string
		off  int
		want string
	}{
		{"bit flip", len(enc) - 7, "CRC"},
		{"bad magic", 0, "magic"},
		{"other version", 4, "version"},
	} {
		damaged := append([]byte(nil), enc...)
		damaged[c.off] ^= 0x01
		if _, err := decode(damaged); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s not refused with %q: %v", c.name, c.want, err)
		}
	}
}

// TestDigestSeparated: Digest separates its parts and is deterministic.
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

// TestWriteRecordAtomic: a second write replaces the first and leaves no
// temp file behind.
func TestWriteRecordAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	for _, cut := range []sim.Time{1, 2} {
		if err := writeRecord(path, record{digest: 9, cut: cut}.encode()); err != nil {
			t.Fatal(err)
		}
	}
	if r, err := readRecord(path); err != nil || r != (record{digest: 9, cut: 2}) {
		t.Errorf("read back %+v, %v; want the second record", r, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("dir has %d entries after two writes, want 1", len(entries))
	}
}

// FuzzDecode: whatever the bytes, decode returns a record or an error,
// and a record it accepts re-encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	enc := record{digest: 0x1234, cut: sim.Millisecond, fired: 7, stats: 8, metrics: 9}.encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-5])
	f.Add(append(append([]byte(nil), enc...), 0))
	f.Add(record{}.encode())
	f.Add([]byte("EVCK"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		r, err := decode(buf)
		if err != nil {
			return
		}
		if got := r.encode(); !bytes.Equal(got, buf) {
			t.Fatalf("decoded %+v re-encodes to %x, want %x", r, got, buf)
		}
	})
}
