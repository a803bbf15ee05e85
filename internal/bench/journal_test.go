package bench

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTrialPanicRetry verifies a worker panic does not kill the
// campaign: the trial is retried at the trial boundary and the final
// results are indistinguishable from a panic-free run.
func TestTrialPanicRetry(t *testing.T) {
	var attempts [40]atomic.Int32
	out := RunParallel(&Env{Parallelism: 8, backoff: time.Nanosecond}, 40, func(trial int) int {
		if attempts[trial].Add(1) == 1 && trial%3 == 0 {
			panic("transient trial failure")
		}
		return trial * 11
	})
	for i, v := range out {
		if v != i*11 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*11)
		}
		want := int32(1)
		if i%3 == 0 {
			want = 2
		}
		if got := attempts[i].Load(); got != want {
			t.Errorf("trial %d ran %d times, want %d", i, got, want)
		}
	}
}

// TestTrialPanicExhaustsAttempts verifies a deterministically broken
// trial still fails the campaign after the bounded retries, with the
// panic context preserved.
func TestTrialPanicExhaustsAttempts(t *testing.T) {
	var calls atomic.Int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("always-panicking trial did not re-panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "all 3 attempts") || !strings.Contains(msg, "broken forever") {
			t.Errorf("re-panic %q missing attempt count or original payload", msg)
		}
		if got := calls.Load(); got != trialAttempts {
			t.Errorf("trial ran %d times, want %d", got, trialAttempts)
		}
	}()
	RunParallel(&Env{Parallelism: 1, backoff: time.Nanosecond}, 1, func(trial int) int {
		calls.Add(1)
		panic("broken forever")
	})
}

// journaledRun executes one experiment at -parallel 8 -domains 2 with a
// journal installed and returns the rendered table.
func journaledRun(t *testing.T, e Experiment, path string) (string, *Journal) {
	t.Helper()
	j, err := OpenJournal(path, e.ID, 2)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	out := e.Run(&Env{Parallelism: 8, Domains: 2, Journal: j}).String()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out, j
}

// TestJournalResumeByteIdentical is the campaign-resumption acceptance
// pin at -parallel 8 -domains 2: a journaled run, a fully resumed run,
// and a resume from a truncated journal (simulating a crash mid-append,
// torn trailing line included) all render byte-identical tables.
func TestJournalResumeByteIdentical(t *testing.T) {
	e, ok := Get("table2")
	if !ok {
		t.Fatal("experiment table2 not registered")
	}
	path := filepath.Join(t.TempDir(), "table2.journal")

	baseline := e.Run(&Env{Parallelism: 8, Domains: 2}).String()

	first, j1 := journaledRun(t, e, path)
	if first != baseline {
		t.Fatalf("journaled run diverges from plain run:\n--- plain ---\n%s\n--- journaled ---\n%s", baseline, first)
	}
	if j1.Hits() != 0 {
		t.Errorf("fresh journal served %d hits, want 0", j1.Hits())
	}
	if j1.Recorded() == 0 {
		t.Fatal("journaled run recorded no trials")
	}

	// Full resume: every trial comes from the journal.
	second, j2 := journaledRun(t, e, path)
	if second != baseline {
		t.Errorf("resumed run diverges:\n--- plain ---\n%s\n--- resumed ---\n%s", baseline, second)
	}
	if j2.Hits() != j1.Recorded() {
		t.Errorf("full resume served %d hits, want %d", j2.Hits(), j1.Recorded())
	}

	// Crash resume: drop the tail half of the journal and leave a
	// torn partial line, as a SIGKILL mid-append would.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(buf), "\n"), "\n")
	keep := lines[:1+len(lines)/2] // header + half the entries
	torn := strings.Join(keep, "\n") + "\n" + `{"call":0,"tri`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	third, j3 := journaledRun(t, e, path)
	if third != baseline {
		t.Errorf("crash-resumed run diverges:\n--- plain ---\n%s\n--- crash-resumed ---\n%s", baseline, third)
	}
	if j3.Hits() == 0 || j3.Hits() >= j1.Recorded() {
		t.Errorf("crash resume served %d hits, want between 1 and %d", j3.Hits(), j1.Recorded()-1)
	}
}

// TestJournalWrongExperimentRefused pins the header check.
func TestJournalWrongExperimentRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.journal")
	j, err := OpenJournal(path, "table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenJournal(path, "fig3", 1); err == nil {
		t.Fatal("journal for table2 opened as fig3")
	}
}

// TestJournalFidelityGuard verifies an entry that does not survive a
// JSON round trip is ignored rather than trusted.
func TestJournalFidelityGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.journal")
	header := `{"experiment":"e"}`
	// Entry stored with a float tail JSON re-encodes differently than a
	// plain int decode would, so the fidelity check must reject it for
	// an int-typed lookup of a string result.
	entry := `{"call":0,"trial":0,"result":"not an int"}`
	if err := os.WriteFile(path, []byte(header+"\n"+entry+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "e", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := journalLookup[int](j, 0, 0); ok {
		t.Error("type-mismatched journal entry accepted")
	}
	if v, ok := journalLookup[string](j, 0, 0); !ok || v != "not an int" {
		t.Errorf("well-typed lookup = %q, %v; want hit", v, ok)
	}
}
