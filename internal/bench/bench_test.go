package bench

import (
	"strconv"
	"strings"
	"testing"
)

func TestResultFormatting(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Cols: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Notef("n=%d", 3)
	s := r.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4",
		"microburst", "cmsreset", "staleness", "projects", "hula", "ablations",
		"tofino", "intfilter", "aqm", "resilience", "netchain", "scale", "up4"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(All()), len(want))
	}
}

// cell returns row r column c of a result.
func cell(res *Result, r, c int) string { return res.Rows[r][c] }

func TestTable1AllEventsFire(t *testing.T) {
	res := Table1(&Env{})
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		n, err := strconv.Atoi(row[3])
		if err != nil || n == 0 {
			t.Errorf("event %s observed %s times", row[0], row[3])
		}
		if row[2] != "yes" {
			t.Errorf("event %s not exposed by event-driven arch", row[0])
		}
	}
	// Baseline exposes exactly the three packet events.
	exposed := 0
	for _, row := range res.Rows {
		if row[1] == "yes" {
			exposed++
		}
	}
	if exposed != 3 {
		t.Errorf("baseline exposes %d events, want 3", exposed)
	}
}

func TestTable2FiveClasses(t *testing.T) {
	res := Table2(&Env{})
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 application classes", len(res.Rows))
	}
	for _, row := range res.Rows {
		if strings.Contains(row[3], "FAILED") {
			t.Errorf("class %s failed: %s", row[0], row[3])
		}
	}
}

func TestTable3Envelope(t *testing.T) {
	res := Table3(&Env{})
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad measured value %q", row[2])
		}
		if v <= 0 || v > 2.5 {
			t.Errorf("%s measured %.2f%%, outside the paper's <=2%% envelope", row[0], v)
		}
	}
}

func TestFig2BaselineWorse(t *testing.T) {
	res := Fig2(&Env{})
	ev, _ := strconv.ParseFloat(cell(res, 0, 1), 64)
	base, _ := strconv.ParseFloat(cell(res, 1, 1), 64)
	if base < 10*(ev+1) {
		t.Errorf("baseline mean error %.0f not clearly worse than event-driven %.0f", base, ev)
	}
}

func TestFig3BoundedExceptFullLoad(t *testing.T) {
	res := Fig3(&Env{})
	last := len(res.Rows) - 1
	for i, row := range res.Rows {
		bounded := row[len(row)-1]
		if i < last && bounded != "yes" {
			t.Errorf("load %s should be bounded", row[0])
		}
		if i == last && bounded != "no" {
			t.Errorf("load %s should be unbounded", row[0])
		}
	}
}

func TestFig4LineRateHeld(t *testing.T) {
	res := Fig4(&Env{})
	for _, row := range res.Rows {
		if row[3] != "100.00%" {
			t.Errorf("%s %s delivered %s, want 100.00%%", row[0], row[1], row[3])
		}
		if row[6] != "0" {
			t.Errorf("%s %s dropped events: %s", row[0], row[1], row[6])
		}
	}
}

func TestMicroburstShape(t *testing.T) {
	res := Microburst(&Env{})
	// Row 0 = event design: full recall, zero false positives.
	if cell(res, 0, 4) != "100.00%" {
		t.Errorf("event recall = %s", cell(res, 0, 4))
	}
	if cell(res, 0, 3) != "0" {
		t.Errorf("event false positives = %s", cell(res, 0, 3))
	}
	evState, _ := strconv.Atoi(cell(res, 0, 1))
	snState, _ := strconv.Atoi(cell(res, 1, 1))
	if snState < 4*evState {
		t.Errorf("state ratio %d/%d below the paper's four-fold claim", snState, evState)
	}
}

func TestCMSResetShape(t *testing.T) {
	res := CMSReset(&Env{})
	for i := 0; i < len(res.Rows); i += 2 {
		timer, cp := res.Rows[i], res.Rows[i+1]
		if timer[3] != "0" {
			t.Errorf("timer design used control messages: %s", timer[3])
		}
		if cp[3] == "0" {
			t.Errorf("control-plane design reported zero messages")
		}
	}
}

func TestStalenessShape(t *testing.T) {
	res := Staleness(&Env{})
	for _, row := range res.Rows {
		over, load, bounded := row[0], row[1], row[len(row)-1]
		slack := !(over == "1.00x" && load == "100%")
		if slack && bounded != "yes" {
			t.Errorf("overspeed %s load %s should be bounded", over, load)
		}
		if !slack && bounded != "no" {
			t.Errorf("overspeed %s load %s should be unbounded", over, load)
		}
	}
}

func TestHULAShape(t *testing.T) {
	res := HULABench(&Env{})
	// Fastest data-plane probing must balance better than the slowest
	// control-plane probing.
	fast, _ := strconv.ParseFloat(cell(res, 0, 2), 64)
	slow, _ := strconv.ParseFloat(cell(res, len(res.Rows)-1, 2), 64)
	if fast <= slow {
		t.Errorf("fast probing Jain %.3f not better than slow %.3f", fast, slow)
	}
	if fast < 0.99 {
		t.Errorf("50us probing should balance nearly perfectly, got %.3f", fast)
	}
}

func TestProjectsAllSucceed(t *testing.T) {
	res := Projects(&Env{})
	if len(res.Rows) < 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if strings.Contains(row[1], "FAILED") {
			t.Errorf("project %s failed", row[0])
		}
	}
}

func TestAblationsShape(t *testing.T) {
	res := Ablations(&Env{})
	var width1Loss, widthFullLoss string
	var timerLast, timerFirst string
	for _, row := range res.Rows {
		switch {
		case row[0] == "bus width x FIFO depth" && row[1] == "width=1/slot depth=256":
			width1Loss = row[3]
		case row[0] == "bus width x FIFO depth" && row[1] == "width=full depth=256":
			widthFullLoss = row[3]
		case row[0] == "merger priority (width=1)" && strings.Contains(row[1], "last"):
			timerLast = row[3]
		case row[0] == "merger priority (width=1)" && strings.Contains(row[1], "first"):
			timerFirst = row[3]
		}
	}
	if width1Loss == "0" {
		t.Error("a 1-event-wide bus should lose TM events at high load")
	}
	if widthFullLoss != "0" {
		t.Errorf("a full-width bus lost events: %s", widthFullLoss)
	}
	if timerLast == timerFirst {
		t.Error("merger priority should change timer event delay on a narrow bus")
	}
	var piggyDelivered, dedicatedDelivered string
	for _, row := range res.Rows {
		if row[0] == "event transport" && row[2] == "data delivered" {
			if strings.Contains(row[1], "piggyback") {
				piggyDelivered = row[3]
			} else {
				dedicatedDelivered = row[3]
			}
		}
	}
	if piggyDelivered != "100.00%" {
		t.Errorf("piggybacking delivered %s, want 100%%", piggyDelivered)
	}
	if dedicatedDelivered == "100.00%" || dedicatedDelivered == "" {
		t.Errorf("dedicated event slots delivered %s, want a clear loss", dedicatedDelivered)
	}
}

func TestTofinoShape(t *testing.T) {
	res := Tofino(&Env{})
	for _, row := range res.Rows {
		if row[0] == "native-events" {
			if row[2] != "100.00%" || row[3] != "100.00%" {
				t.Errorf("native at %s: delivered=%s applied=%s", row[1], row[2], row[3])
			}
		}
		if row[0] == "recirc-emulation" && row[1] == "90%" {
			if row[3] == "100.00%" {
				t.Error("emulation at 90% load should lose dequeue updates")
			}
		}
	}
}

func TestINTFilterShape(t *testing.T) {
	res := INTFilter(&Env{})
	perPkt, _ := strconv.Atoi(cell(res, 0, 1))
	periodic, _ := strconv.Atoi(cell(res, 1, 1))
	filtered, _ := strconv.Atoi(cell(res, 2, 1))
	if !(filtered < periodic && periodic < perPkt) {
		t.Errorf("report volumes not ordered: filtered=%d periodic=%d perPacket=%d",
			filtered, periodic, perPkt)
	}
	if filtered == 0 {
		t.Error("filter reported nothing despite injected surges")
	}
	if perPkt < 10*filtered {
		t.Errorf("filter reduction below 10x: %d vs %d", perPkt, filtered)
	}
}

func TestAQMFamilyShape(t *testing.T) {
	res := AQMFamily(&Env{})
	byPolicy := map[string][]string{}
	for _, row := range res.Rows {
		byPolicy[row[0]] = row
	}
	tail, _ := strconv.ParseFloat(byPolicy["tail-drop"][1], 64)
	for _, aqm := range []string{"RED", "PIE", "AFD", "FRED"} {
		q, _ := strconv.ParseFloat(byPolicy[aqm][1], 64)
		if q >= tail/3 {
			t.Errorf("%s mean queue %.0fKB not clearly below tail-drop's %.0fKB", aqm, q, tail)
		}
	}
	// The fair AQMs must protect the mouse nearly perfectly.
	for _, fair := range []string{"AFD", "FRED"} {
		if byPolicy[fair][2] < "99" { // "99.xx%" string compare is safe here
			t.Errorf("%s mouse delivery = %s, want >=99%%", fair, byPolicy[fair][2])
		}
	}
}
