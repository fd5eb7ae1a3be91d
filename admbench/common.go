package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"time"

	"repro/internal/mcc"
	"repro/internal/model"
)

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	tr      *tracer // nil when tracing is off
}

// result is what a workload measured and checked.
type result struct {
	attempted int
	failed    int
	failures  []string // the first few failure messages
	e2e       metricValues
	layer     metricValues
	notes     []string // extra human-readable lines
}

func newResult() *result { return &result{e2e: metricValues{}, layer: metricValues{}} }

// failf counts one failed operation or check.
func (r *result) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tail records a latency percentile under the tail rule, with the
// percentile actually reported and its sample count as a note. Too few
// samples to report it fails the run.
func (r *result) tail(m metricValues, name string, samples []float64, want float64) {
	t, ok := percentile(samples, want)
	if !ok {
		r.failf("%s: %d samples are too few for any percentile", name, t.N)
		return
	}
	m[name] = t.Value
	r.notef("%s %.6g us is p%.2f of %d samples", name, t.Value, 100*t.Q, t.N)
}

// blockTail records the median over blocks of size samples of each
// block's percentile, noting the blocks and their size. A run too short
// for one complete block reports the percentile over all its samples.
func (r *result) blockTail(m metricValues, name string, samples []float64, size int, want float64) {
	t, blocks, ok := blockPercentile(samples, size, want)
	if !ok {
		r.tail(m, name, samples, want)
		return
	}
	m[name] = t.Value
	r.notef("%s %.6g us is the median of %d blocks' p%.2f, %d samples each", name, t.Value, blocks, 100*t.Q, t.N)
}

// Change kinds, as the scenario generator names them.
const (
	kindAdd     = "add"
	kindUpdate  = "update"
	kindRemove  = "remove"
	kindFlow    = "flow"
	kindInvalid = "invalid"
)

// kindOf classifies a generated change by the generator's naming scheme:
// telemetry adds, cross-domain flow clients, contract-violating
// proposals, removals, and updates of baseline functions.
func kindOf(c mcc.Change) string {
	switch {
	case c.Update == nil:
		return kindRemove
	case strings.HasPrefix(c.Update.Name, "telem"):
		return kindAdd
	case strings.HasPrefix(c.Update.Name, "xdom"):
		return kindFlow
	case strings.HasPrefix(c.Update.Name, "broken"):
		return kindInvalid
	default:
		return kindUpdate
	}
}

// propose decides one change through the MCC's public entry points and
// names the call.
func propose(m *mcc.MCC, c mcc.Change) (*mcc.Report, string) {
	if c.Update != nil {
		return m.ProposeUpdate(*c.Update), "mcc.ProposeUpdate"
	}
	return m.ProposeRemoval(c.Remove), "mcc.ProposeRemoval"
}

// setupMCC builds an MCC and deploys the baseline, returning the time
// both took.
func setupMCC(tr *tracer, p *model.Platform, baseline *model.FunctionalArchitecture) (*mcc.MCC, time.Duration, error) {
	t0 := time.Now()
	m, err := mcc.New(p)
	if err != nil {
		return nil, 0, fmt.Errorf("mcc.New: %w", err)
	}
	t1 := time.Now()
	rep := m.ProposeArchitecture(baseline)
	t2 := time.Now()
	if !rep.Accepted {
		return nil, 0, fmt.Errorf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	tr.call("mcc.New", "setup", "", 0, t0, t1)
	tr.call("mcc.ProposeArchitecture", "setup", "", 0, t1, t2, rep)
	return m, t2.Sub(t0), nil
}

// reportFault says how a decision breaks the rules every workload
// shares, or returns "": no degraded decision, no recovered panic, and
// every contract-violating change rejected by validation.
func reportFault(kind string, rep *mcc.Report) string {
	switch {
	case rep.Degraded:
		return fmt.Sprintf("degraded decision %v", rep.DegradedReasons)
	case rep.PanicsRecovered > 0:
		return fmt.Sprintf("%d panics recovered", rep.PanicsRecovered)
	case kind == kindInvalid && (rep.Accepted || rep.RejectedAt != mcc.StageValidate):
		return fmt.Sprintf("broken change not rejected at validate (accepted=%v, at %q)", rep.Accepted, rep.RejectedAt)
	}
	return ""
}

// checkTables holds the latest accepted report's whole-platform tables
// to the from-scratch oracle over the deployed implementation.
func (r *result) checkTables(id string, p *model.Platform, m *mcc.MCC, last *mcc.Report) {
	if last == nil {
		r.failf("%s: no accepted change to check the committed tables against", id)
		return
	}
	timing, monitors, err := mcc.FromScratchTables(p, m.DeployedImpl())
	switch {
	case err != nil:
		r.failf("%s: from-scratch tables: %v", id, err)
	case !reflect.DeepEqual(last.FullTiming(), timing):
		r.failf("%s: committed timing table differs from the from-scratch oracle", id)
	case !reflect.DeepEqual(last.FullMonitors(), monitors):
		r.failf("%s: committed monitor plan differs from the from-scratch oracle", id)
	}
}

// sameDecision reports whether two reports decided a change alike.
func sameDecision(a, b *mcc.Report) bool {
	return a.Accepted == b.Accepted && a.RejectedAt == b.RejectedAt && reflect.DeepEqual(a.Findings, b.Findings)
}

// spanLayers derives the per-layer metrics that traced spans carry:
//   - stage.* from the spans named measured, which wrap the calls the
//     workload's end-to-end metrics time;
//   - mcc.* and kind.* from the single-change MCC proposal spans.
func spanLayers(m metricValues, spans []span, self map[int64]time.Duration, measured ...string) {
	var stages [nStages]time.Duration
	var changes, scans, checks int
	for i := range spans {
		s := &spans[i]
		if !slices.Contains(measured, s.Name) {
			continue
		}
		for k := range stages {
			stages[k] += s.Stages[k]
		}
		changes += s.Changes
		scans += s.TimingScans
		checks += s.Checks
	}
	n := float64(changes)
	for k, name := range stageOrder {
		m["stage."+string(name)+"_us"] = ratio(usOf(stages[k]), n)
	}
	m["stage.timing_scans_per_change"] = ratio(float64(scans), n)
	m["stage.checks_per_change"] = ratio(float64(checks), n)

	var dur, selfSum time.Duration
	var passes, proposals int
	kindDur := map[string]time.Duration{}
	kindN := map[string]int{}
	for i := range spans {
		s := &spans[i]
		if s.Name != "mcc.ProposeUpdate" && s.Name != "mcc.ProposeRemoval" {
			continue
		}
		dur += s.dur()
		selfSum += self[s.ID]
		passes += s.Passes
		proposals += s.Changes
		kindDur[s.Kind] += s.dur()
		kindN[s.Kind]++
	}
	m["mcc.unattributed_frac"] = ratio(float64(selfSum), float64(dur))
	m["mcc.passes_per_change"] = ratio(float64(passes), float64(proposals))
	for _, k := range []string{kindAdd, kindUpdate, kindRemove, kindFlow, kindInvalid} {
		m["kind."+k+"_us"] = ratio(usOf(kindDur[k]), float64(kindN[k]))
	}
}
