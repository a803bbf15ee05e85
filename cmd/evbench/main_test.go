package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestUsageErrors: a bad flag value exits 2 with one line on stderr
// before any experiment runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "-1", "-exp", "table2"},
		{"-domains", "0", "-exp", "table2"},
		{"-exp", "bogus"},
		{"-trace", "t.jsonl"}, // telemetry needs -exp
	} {
		var errw bytes.Buffer
		code := run(args, io.Discard, &errw)
		if code != exitUsage || strings.Count(errw.String(), "\n") != 1 {
			t.Errorf("run(%v) = %d, want %d with one line; stderr:\n%s", args, code, exitUsage, errw.String())
		}
	}
}
