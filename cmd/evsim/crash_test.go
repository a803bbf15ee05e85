package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

	"repro/internal/checkpoint"
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

// TestResumeByteIdenticalInProcess verifies, without any crash, that a
// run resumed from its last checkpoint prints byte-identical statistics
// to the uninterrupted run.
func TestResumeByteIdenticalInProcess(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	flags := []string{"-ms", "4", "-checkpoint-every", "1ms"}

	// The un-checkpointed run pins that checkpointing itself does not
	// perturb the statistics.
	var plain bytes.Buffer
	if code := run([]string{"-ms", "4"}, &plain, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("reference run exited %d", code)
	}
	var first bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-checkpoint", ckpt), &first, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("checkpointed run exited %d", code)
	}
	var resumed bytes.Buffer
	var errw bytes.Buffer
	if code := run(append(append([]string{}, flags...), "-resume", ckpt), &resumed, &errw); code != exitOK {
		t.Fatalf("resumed run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "resumed from") {
		t.Errorf("resume did not report its restore point: %q", errw.String())
	}
	if plain.String() != first.String() || first.String() != resumed.String() {
		t.Errorf("outputs diverge:\n--- plain ---\n%s--- checkpointed ---\n%s--- resumed ---\n%s",
			plain.String(), first.String(), resumed.String())
	}

	// The files themselves, in format version 3, for these flags (the
	// second also carries compiled-µP4 externs, the instance and the
	// telemetry section): changing one byte of the layout must come with
	// a checkpoint.FormatVersion bump, not slip through a two-way walk.
	ckptP4 := filepath.Join(dir, "p4.ckpt")
	p4flags := []string{"-ms", "4", "-p4", "../../testdata/microburst.up4", "-metrics", filepath.Join(dir, "m.json"),
		"-checkpoint-every", "1ms", "-checkpoint", ckptP4}
	if code := run(p4flags, &bytes.Buffer{}, &errw); code != exitOK {
		t.Fatalf("µP4 checkpointed run exited %d: %s", code, errw.String())
	}
	for _, pin := range []struct {
		path string
		size int
		want uint64
	}{
		{ckpt, 6038, 0x79c8e556fb4dd5bd},
		{ckptP4, 1028100, 0x4bc1453d40cf6e6b}, // the program is named by the -p4 path as spelled
	} {
		b, err := os.ReadFile(pin.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := checkpoint.Digest(string(b)); got != pin.want || len(b) != pin.size {
			t.Errorf("%s is %d bytes, digest %#x; the pinned format is %d bytes, digest %#x",
				filepath.Base(pin.path), len(b), got, pin.size, pin.want)
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
	// The default flags load the switch at line rate, so the SIGKILL lands
	// in a run whose checkpoints carry conveyor entries and queued frames.
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
			ports: 4, gbps: 10, p4src: "control Ingress { apply { } }", seed: 1, ckptEvery: 500},
		p4file: "a.up4", traceFile: "t.jsonl", metrics: "m.json", ckptPath: "c.ckpt", resume: "r.ckpt",
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

// TestResumeDamageSweep feeds -resume files that are not checkpoints. The
// file as written is damaged at every offset (cut short there; that byte
// overwritten), which the header checks and section CRCs must refuse;
// then every section payload is damaged the same way under a fresh CRC,
// which reaches the component walks and must end in their error or a
// completed load — never a panic, an unbounded loop or an allocation sized
// by a damaged count. The two files ISSUE 20 was opened with come last.
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
	for off := range buf {
		if _, err := checkpoint.Decode(buf[:off]); err == nil {
			t.Fatalf("file truncated at %d of %d decoded", off, len(buf))
		}
		damaged := append([]byte(nil), buf...)
		if damaged[off] ^= 0xFF; off >= 8 && off < 16 {
			continue // the config digest is the caller's to compare
		}
		if _, err := checkpoint.Decode(damaged); err == nil {
			t.Fatalf("file with byte %d inverted decoded", off)
		}
	}

	good, err := checkpoint.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{behaviour: behaviour{archName: "event", load: 0.9, size: 60, ms: 1, overspeed: 1.1,
		ports: 4, gbps: 10, seed: 1}, ckptPath: ckpt}
	if err := finishConfig(cfg, "500us"); err != nil {
		t.Fatal(err)
	}
	// names lists the file's sections in the order evsim writes them.
	var names []string
	if st, err := build(cfg, false, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	} else {
		for _, sec := range newCheckpointer(st).sections() {
			names = append(names, sec.name)
		}
	}
	// load pours good, with section name's payload replaced, into a
	// freshly built run.
	load := func(name string, payload []byte) error {
		f := checkpoint.New(good.ConfigDigest)
		for _, n := range names {
			b, _ := good.Section(n)
			if n == name {
				b = payload
			}
			f.Add(n, b)
		}
		st, err := build(cfg, false, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = restoreRun(st, f)
		return err
	}
	for _, name := range names {
		b, _ := good.Section(name)
		if err := checkpoint.DamageSweep(b, func(buf []byte) error { return load(name, buf) }); err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
	}

	// A CRC-valid file whose pool free-list depth reads 2^40 (the pool's
	// depth, News, Reuses end the switch section), and a file with two
	// sections of one name: exit 1 with one line, not an out-of-memory
	// abort or File.Add's panic.
	sw, _ := good.Section("switch")
	deep := append([]byte(nil), sw...)
	binary.LittleEndian.PutUint64(deep[len(deep)-24:], 1<<40)
	f := checkpoint.New(good.ConfigDigest)
	for _, n := range names {
		b, _ := good.Section(n)
		if n == "switch" {
			b = deep
		}
		f.Add(n, b)
	}
	deepPath := filepath.Join(dir, "deep.ckpt")
	if _, err := f.WriteFile(deepPath); err != nil {
		t.Fatal(err)
	}
	first := buf[20 : 20+4+binary.LittleEndian.Uint32(buf[20:])+4] // length, body, CRC
	twice := append(append([]byte(nil), buf...), first...)
	twice[16]++ // section count
	twicePath := filepath.Join(dir, "twice.ckpt")
	if err := os.WriteFile(twicePath, twice, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{deepPath, twicePath} {
		var errw bytes.Buffer
		code := run(append(append([]string{}, flags...), "-resume", path), &bytes.Buffer{}, &errw)
		if msg := errw.String(); code != exitRuntime || strings.Count(msg, "\n") != 1 {
			t.Errorf("-resume %s: exit %d, want %d with a one-line error; stderr:\n%s", filepath.Base(path), code, exitRuntime, msg)
		} else {
			t.Logf("%s: %s", filepath.Base(path), msg)
		}
	}
}
