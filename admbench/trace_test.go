package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/mcc"
)

func iv(start, end int) interval {
	return interval{time.Duration(start), time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", iv(0, 100), nil, 100},
		{"disjoint", iv(0, 100), []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlap counts once", iv(0, 100), []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested", iv(0, 100), []interval{iv(10, 90), iv(20, 30)}, 20},
		{"clipped to parent", iv(50, 100), []interval{iv(0, 60), iv(90, 200)}, 30},
		{"outside parent", iv(50, 100), []interval{iv(0, 40), iv(120, 130)}, 50},
		{"unsorted and touching", iv(0, 100), []interval{iv(50, 70), iv(0, 50)}, 30},
		{"fully covered", iv(0, 100), []interval{iv(0, 100)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesCountStagesAndChildSpans(t *testing.T) {
	call := span{ID: 2, Parent: 1, Name: "mcc.ProposeUpdate", Start: 100, End: 200}
	call.addReport(&mcc.Report{Stages: []mcc.StageTrace{
		{Stage: mcc.StageValidate, Wall: 10},
		{Stage: mcc.StageTiming, Wall: 25},
		{Stage: mcc.StageTiming, Wall: 5}, // a second pass adds up
	}})
	root := span{ID: 1, Name: "run", Start: 0, End: 400}
	self := selfTimes([]span{root, call})
	if got := self[2]; got != 60 {
		t.Errorf("call self time %v, want 100-10-30 = 60", got)
	}
	if got := self[1]; got != 300 {
		t.Errorf("root self time %v, want 400-100 = 300", got)
	}
	if call.Changes != 1 || call.Stages[5] != 30 {
		t.Errorf("folded report: changes %d, timing wall %v", call.Changes, call.Stages[5])
	}
}

func TestNilTracerIsOff(t *testing.T) {
	var tr *tracer
	if tr.id() != 0 || tr.record(span{}) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded something")
	}
	tr.call("x", "", "", 0, time.Now(), time.Now())
}

func TestWriteSpans(t *testing.T) {
	tr := newTracer()
	root := tr.id()
	t0 := tr.epoch
	tr.call("mcc.ProposeUpdate", "c0", kindAdd, root, t0.Add(10), t0.Add(50), &mcc.Report{
		Stages: []mcc.StageTrace{{Stage: mcc.StageCommit, Wall: 15}},
	})
	tr.record(span{ID: root, Name: "run", Start: 0, End: 100})
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := writeSpans(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []spanJSON
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var j spanJSON
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, j)
	}
	if len(lines) != 2 || lines[0].Name != "run" || lines[1].Name != "mcc.ProposeUpdate" {
		t.Fatalf("spans written out of start order: %+v", lines)
	}
	call := lines[1]
	if call.Parent != root || call.Change != "c0" || call.Kind != kindAdd {
		t.Errorf("call span %+v", call)
	}
	if call.SelfUS != 0.025 || call.StagesUS["commit"] != 0.015 {
		t.Errorf("call self %vus, commit %vus; want 0.025 and 0.015", call.SelfUS, call.StagesUS["commit"])
	}
}
