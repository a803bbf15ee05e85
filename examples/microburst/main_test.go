package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden holds the example's report to testdata/golden.txt. The
// simulation is deterministic, so any difference is a behaviour change;
// after an intended one, regenerate with
//
//	go run ./examples/microburst > examples/microburst/testdata/golden.txt
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	run(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report differs from testdata/golden.txt\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
