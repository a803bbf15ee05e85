package main

import (
	"bytes"
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
		// A checkpoint cut by the burst engine must not silently resume
		// under the per-packet oracle (or vice versa): -burst is part of
		// the config digest, so the mode flip is refused up front.
		{[]string{"-ms", "1", "-burst", "0", "-checkpoint-every", "500us", "-resume", ckpt}, exitUsage},
		{[]string{"-ms", "1", "-checkpoint-every", "500us", "-resume", ckpt}, exitOK},
		// 0 is the only value -burst takes (the slot budget is a constant),
		// and one switch has nothing to partition: -domains is not a flag.
		{[]string{"-burst", "16"}, exitUsage},
		{[]string{"-domains", "2"}, exitUsage},
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

func runQuiet(t *testing.T, args ...string) int {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	t.Logf("run(%v) -> %d\n%s%s", args, code, out.String(), errw.String())
	return code
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

	// The same cycle under the per-packet oracle (-burst 0): the oracle's
	// checkpoint/resume must be self-consistent, and its statistics must
	// match the burst engine's byte for byte — the evsim-level burst
	// differential.
	ckptOracle := filepath.Join(dir, "oracle.ckpt")
	oflags := []string{"-ms", "4", "-burst", "0", "-checkpoint-every", "1ms"}
	var ofirst bytes.Buffer
	if code := run(append(append([]string{}, oflags...), "-checkpoint", ckptOracle), &ofirst, &bytes.Buffer{}); code != exitOK {
		t.Fatalf("oracle checkpointed run exited %d", code)
	}
	var oresumed bytes.Buffer
	if code := run(append(append([]string{}, oflags...), "-resume", ckptOracle), &oresumed, &errw); code != exitOK {
		t.Fatalf("oracle resumed run exited %d: %s", code, errw.String())
	}
	if ofirst.String() != oresumed.String() {
		t.Errorf("oracle resume diverges:\n--- checkpointed ---\n%s--- resumed ---\n%s",
			ofirst.String(), oresumed.String())
	}
	if ofirst.String() != plain.String() {
		t.Errorf("burst engine and per-packet oracle diverge:\n--- burst ---\n%s--- oracle ---\n%s",
			plain.String(), ofirst.String())
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
	// Default flags run the burst engine (-burst -1), so the SIGKILL lands
	// in a run whose checkpoints carry conveyor entries and arrival-FIFO
	// frames mid-burst.
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
