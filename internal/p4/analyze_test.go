package p4

import (
	"strings"
	"testing"
)

func hazardKinds(hs []Hazard) []HazardKind {
	var ks []HazardKind
	for _, h := range hs {
		ks = append(ks, h.Kind)
	}
	return ks
}

func TestAnalyzeMicroburstStaleReadOnly(t *testing.T) {
	// The paper's own program: ingress reads what enqueue/dequeue
	// update. Exactly one hazard class: bounded stale reads.
	hs := MustCompile(Programs["microburst"]).Analyze()
	if len(hs) != 1 {
		t.Fatalf("hazards = %v", hs)
	}
	h := hs[0]
	if h.Kind != HazardStaleRead || h.Fatal {
		t.Errorf("hazard = %v", h)
	}
	if h.Register != "bufSize_reg" {
		t.Errorf("register = %s", h.Register)
	}
	for _, want := range []string{"Ingress", "Enqueue", "Dequeue"} {
		found := false
		for _, c := range h.Controls {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Errorf("controls %v missing %s", h.Controls, want)
		}
	}
}

// TestAnalyzeDeferredWriteFatal: the one fatal hazard is a check error
// that names the offending write, so the program never instantiates.
func TestAnalyzeDeferredWriteFatal(t *testing.T) {
	c, err := Compile(`
shared_register<bit<8>>(4) r;
control Ingress { apply { forward(1); } }
control Enqueue { apply { r.write(0, 1); } }
`)
	var perr *Error
	if c != nil || !errorsAs(err, &perr) {
		t.Fatalf("Compile = %v, %v; want a *p4.Error", c, err)
	}
	if perr.Pos.Line != 4 || !strings.Contains(err.Error(), "deferred-write") {
		t.Errorf("error = %v, want a deferred-write at line 4", err)
	}
}

func TestAnalyzeLostUpdate(t *testing.T) {
	// A timer (direct) resets a register that enqueue events (deferred)
	// add to: the reset can be partially undone by in-flight deltas.
	hs := MustCompile(`
shared_register<bit<32>>(8) cnt;
control Ingress { apply { forward(1); } }
control Enqueue { apply { cnt.add(ev.port % 8, ev.pkt_len); } }
control Timer   { apply { cnt.write(0, 0); } }
`).Analyze()
	var lost, stale bool
	for _, h := range hs {
		switch h.Kind {
		case HazardLostUpdate:
			lost = true
			if !strings.Contains(h.Msg, "undo") {
				t.Errorf("msg = %q", h.Msg)
			}
		case HazardStaleRead:
			stale = true
		}
	}
	if !lost {
		t.Errorf("no lost-update hazard in %v", hs)
	}
	if stale {
		t.Errorf("phantom stale-read (timer only writes): %v", hs)
	}
}

func TestAnalyzeDeferredRead(t *testing.T) {
	hs := MustCompile(`
shared_register<bit<32>>(8) r;
control Ingress { apply { forward(1); } }
control Dequeue { bit<32> v; apply { r.read(0, v); r.add(0, 1); } }
`).Analyze()
	found := false
	for _, h := range hs {
		if h.Kind == HazardDeferredRead {
			found = true
			if h.Controls[0] != "Dequeue" {
				t.Errorf("controls = %v", h.Controls)
			}
		}
	}
	if !found {
		t.Errorf("no deferred-read hazard in %v", hs)
	}
}

func TestAnalyzeCleanProgram(t *testing.T) {
	// A register used by one direct thread only has no hazards.
	hs := MustCompile(`
shared_register<bit<32>>(8) r;
control Ingress { bit<32> v; apply { r.read(0, v); r.add(0, 1); forward(1); } }
control Timer   { apply { no_op(); } }
`).Analyze()
	if len(hs) != 0 {
		t.Errorf("hazards on a single-thread register: %v", hs)
	}
}

// TestAnalyzePortConflict: two direct threads on one register contend for
// the main array's single port, so a timer that fires during a packet
// slot loses its write (TestAnalyzePassedMeansNoRuntimeHazard found it).
func TestAnalyzePortConflict(t *testing.T) {
	hs := MustCompile(`
shared_register<bit<32>>(8) r;
control Ingress { bit<32> v; apply { r.read(0, v); r.add(0, 1); forward(1); } }
control Timer   { apply { r.write(0, 0); } }
`).Analyze()
	if len(hs) != 1 || hs[0].Kind != HazardPortConflict || hs[0].Fatal ||
		strings.Join(hs[0].Controls, " ") != "Ingress Timer" {
		t.Errorf("hazards = %v, want one port-conflict on r by Ingress and Timer", hs)
	}
}

func TestAnalyzeAllLibraryPrograms(t *testing.T) {
	// No library program may contain a fatal hazard; stale reads are
	// expected and fine.
	for name, src := range Programs {
		for _, h := range MustCompile(src).Analyze() {
			if h.Fatal {
				t.Errorf("program %q has fatal hazard: %v", name, h)
			}
		}
	}
}
