package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mcc"
)

// stageOrder is the built-in acceptance pipeline in execution order; a
// span carries one wall-clock slot per stage.
var stageOrder = []mcc.Stage{
	mcc.StageValidate, mcc.StageMapping, mcc.StageSynth, mcc.StageSafety,
	mcc.StageSecurity, mcc.StageTiming, mcc.StageMonitors, mcc.StageCommit,
}

const nStages = 8

// span is one timed call into the system, recorded from outside it. A
// span around a call that returned reports carries the reports' stage
// walls and counters; the stages become the span's children when self
// time is computed (stageIntervals).
type span struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Change string // change ID, shared by every span of one change
	Kind   string // change kind from the generator, for single-change spans
	Start  time.Duration
	End    time.Duration

	Stages      [nStages]time.Duration
	Changes     int // reports folded into the span
	TimingScans int
	Checks      int // safety + security verdicts computed
	Passes      int
}

func (s *span) dur() time.Duration { return s.End - s.Start }

func (s *span) stageSum() time.Duration {
	var sum time.Duration
	for _, w := range s.Stages {
		sum += w
	}
	return sum
}

// addReport folds one report's stage walls and counters into the span.
func (s *span) addReport(r *mcc.Report) {
	s.Changes++
	for _, st := range r.Stages {
		for k, name := range stageOrder {
			if st.Stage == name {
				s.Stages[k] += st.Wall
				break
			}
		}
	}
	s.TimingScans += r.TimingScans
	s.Checks += r.SafetyChecks + r.SecurityChecks
	s.Passes += r.Passes
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so call sites need no branch.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, for a parent that must be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// at converts a wall-clock instant to the trace's time axis.
func (t *tracer) at(ts time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return ts.Sub(t.epoch)
}

// record stores a finished span; a zero ID is assigned a fresh one.
func (t *tracer) record(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// call records a span named name over [start, end] for the reports a
// call returned.
func (t *tracer) call(name, change, kind string, parent int64, start, end time.Time, reps ...*mcc.Report) {
	if t == nil {
		return
	}
	s := span{Parent: parent, Name: name, Change: change, Kind: kind, Start: t.at(start), End: t.at(end)}
	for _, r := range reps {
		s.addReport(r)
	}
	t.record(s)
}

// snapshot returns the recorded spans; call it after every recording
// goroutine has finished.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a closed stretch of the trace's time axis.
type interval struct{ Start, End time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover: children are clipped to the parent and overlaps count once.
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}

// stageIntervals places a span's stage walls back to back, ending where
// the span ends. The reports give each stage's duration, not its start,
// so the placement is nominal; it never changes the covered length.
func stageIntervals(s *span) []interval {
	var out []interval
	end := s.End
	for k := nStages - 1; k >= 0; k-- {
		if w := s.Stages[k]; w > 0 {
			out = append(out, interval{end - w, end})
			end -= w
		}
	}
	return out
}

// selfTimes computes every span's self time: its children are the spans
// naming it as parent plus its own stage walls.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]interval)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], interval{spans[i].Start, spans[i].End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		cs := append(kids[s.ID], stageIntervals(s)...)
		out[s.ID] = selfTime(interval{s.Start, s.End}, cs)
	}
	return out
}

type spanJSON struct {
	ID          int64              `json:"id"`
	Parent      int64              `json:"parent,omitempty"`
	Name        string             `json:"name"`
	Change      string             `json:"change,omitempty"`
	Kind        string             `json:"kind,omitempty"`
	StartUS     float64            `json:"start_us"`
	EndUS       float64            `json:"end_us"`
	SelfUS      float64            `json:"self_us"`
	StagesUS    map[string]float64 `json:"stages_us,omitempty"`
	Changes     int                `json:"changes,omitempty"`
	TimingScans int                `json:"timing_scans,omitempty"`
	Checks      int                `json:"checks,omitempty"`
	Passes      int                `json:"passes,omitempty"`
}

// writeSpans writes one JSON object per span, ordered by start time.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	self := selfTimes(spans)
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range sorted {
		s := &sorted[i]
		j := spanJSON{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Change: s.Change, Kind: s.Kind,
			StartUS: usOf(s.Start), EndUS: usOf(s.End), SelfUS: usOf(self[s.ID]),
			Changes: s.Changes, TimingScans: s.TimingScans, Checks: s.Checks, Passes: s.Passes,
		}
		if s.Changes > 0 {
			j.StagesUS = make(map[string]float64, nStages)
			for k, name := range stageOrder {
				j.StagesUS[string(name)] = usOf(s.Stages[k])
			}
		}
		if err := enc.Encode(j); err != nil {
			f.Close()
			return fmt.Errorf("write span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close span file: %w", err)
	}
	return nil
}
