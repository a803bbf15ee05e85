package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// Journal persists completed trial results so an interrupted campaign
// can resume without re-running finished work: each RunParallel trial
// that completes is appended as one JSON line, and a later run with the
// same journal loads those results instead of recomputing them. Because
// trials are deterministic, the resumed campaign's tables are
// byte-identical to an uninterrupted run's.
//
// Entries are keyed by (call, trial): call is the ordinal of the
// RunParallel invocation within the experiment (experiments execute
// deterministically, so invocation k of a resumed run lines up with
// invocation k of the interrupted one) and trial the index within it.
// Results must round-trip through encoding/json; an entry that does not
// re-encode to its stored bytes is ignored and the trial re-runs, so a
// lossy type costs time, never correctness.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	exp    string
	loaded map[journalKey]json.RawMessage
	calls  int
	hits   int
}

type journalKey struct {
	Call  int
	Trial int
}

type journalLine struct {
	// Header line: experiment id plus the effective -domains setting
	// (first line of the file). A journal resumes only under the setting
	// that wrote it, mirroring the checkpoint config-digest check.
	Experiment string `json:"experiment,omitempty"`
	Domains    string `json:"domains,omitempty"`
	// Entry lines: one completed trial.
	Call   int             `json:"call"`
	Trial  int             `json:"trial"`
	Result json.RawMessage `json:"result,omitempty"`
}

// OpenJournal opens (or creates) a campaign journal for the given
// experiment, to be run at the given Env.Domains. An existing journal
// written for a different experiment or domain count is refused; a torn
// trailing line (the process died mid-append) is dropped.
func OpenJournal(path, experiment string, domains int) (*Journal, error) {
	label := strconv.Itoa(max(domains, 1))
	j := &Journal{exp: experiment, loaded: make(map[journalKey]json.RawMessage)}
	if buf, err := os.ReadFile(path); err == nil && len(buf) > 0 {
		sc := bufio.NewScanner(bytes.NewReader(buf))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		first := true
		for sc.Scan() {
			var ln journalLine
			if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
				break // torn tail: keep what parsed so far
			}
			if first {
				first = false
				if ln.Experiment != experiment {
					return nil, fmt.Errorf("bench: journal %s belongs to experiment %q, not %q", path, ln.Experiment, experiment)
				}
				if ln.Domains != "" && ln.Domains != label {
					return nil, fmt.Errorf("bench: journal %s was recorded with -domains %s; rerun with the same setting or start a new journal (now %s)",
						path, ln.Domains, label)
				}
				continue
			}
			if ln.Result != nil {
				j.loaded[journalKey{ln.Call, ln.Trial}] = ln.Result
			}
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("bench: reading journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: opening journal: %w", err)
	}
	j.f = f
	if len(j.loaded) == 0 {
		st, err := f.Stat()
		if err == nil && st.Size() == 0 {
			hdr, _ := json.Marshal(journalLine{Experiment: experiment, Domains: label})
			if _, err := f.Write(append(hdr, '\n')); err != nil {
				f.Close()
				return nil, fmt.Errorf("bench: writing journal header: %w", err)
			}
		}
	}
	return j, nil
}

// Hits returns how many trial results were served from the journal
// instead of recomputed.
func (j *Journal) Hits() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits
}

// Recorded returns how many trial results the journal holds.
func (j *Journal) Recorded() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.loaded)
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// nextCall allocates the ordinal for one RunParallel invocation.
func (j *Journal) nextCall() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.calls
	j.calls++
	return c
}

func (j *Journal) get(call, trial int) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	raw, ok := j.loaded[journalKey{call, trial}]
	if ok {
		j.hits++
	}
	return raw, ok
}

func (j *Journal) put(call, trial int, raw json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.loaded[journalKey{call, trial}] = raw
	if j.f != nil {
		b, _ := json.Marshal(journalLine{Call: call, Trial: trial, Result: raw})
		j.f.Write(append(b, '\n'))
	}
}

// journalLookup decodes a recorded trial result. The decoded value must
// re-encode to the stored bytes (JSON fidelity); otherwise the entry is
// rejected and the caller re-runs the trial.
func journalLookup[T any](j *Journal, call, trial int) (T, bool) {
	var v T
	raw, ok := j.get(call, trial)
	if !ok {
		return v, false
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return v, false
	}
	re, err := json.Marshal(v)
	if err != nil || !bytes.Equal(re, raw) {
		var zero T
		return zero, false
	}
	return v, true
}

// journalRecord stores a completed trial. Types that cannot marshal are
// silently skipped: the campaign still runs, it just cannot resume.
func journalRecord[T any](j *Journal, call, trial int, v T) {
	raw, err := json.Marshal(v)
	if err != nil {
		return
	}
	j.put(call, trial, raw)
}
