package mcc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// --- diff-proportional timing-job construction ------------------------------

func deployFlowBaseline(t *testing.T, m *MCC) {
	t.Helper()
	prod := fn("radar", model.ASILD, 20000, 2000, 512)
	prod.Provides = []string{"objects"}
	cons := fn("acc", model.ASILD, 20000, 2000, 512)
	cons.Requires = []string{"objects"}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{prod, cons, fn("infotainment", model.QM, 50000, 10000, 1024)},
		Flows:     []model.Flow{{From: "radar", To: "acc", Service: "objects", MsgBytes: 8, PeriodUS: 20000}},
	}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("baseline rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
}

func TestTimingJobsCleanProposalZeroScans(t *testing.T) {
	// A proposal identical to the deployed configuration (empty diff)
	// touches no resource: the timing stage must splice every cached job
	// and perform zero TasksOn/MessagesOn scans.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	rep := m.ProposeArchitecture(m.Deployed())
	if !rep.Accepted {
		t.Fatalf("no-op proposal rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	if rep.TimingScans != 0 {
		t.Fatalf("clean proposal scanned %d resources, want 0", rep.TimingScans)
	}
	if rep.TimingDirty != 0 {
		t.Fatalf("clean proposal analyzed %d resources, want 0", rep.TimingDirty)
	}
	if rep.TimingResources == 0 {
		t.Fatal("no timing coverage recorded")
	}
}

func TestTimingJobsScansOnlyAffectedResources(t *testing.T) {
	// A serviceless, flowless addition lands on exactly one processor and
	// leaves the message list untouched: one scan, everything else
	// spliced from the deployed job cache.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	rep := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("telemetry rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	if rep.TimingScans != 1 {
		t.Fatalf("one-processor addition scanned %d resources, want 1", rep.TimingScans)
	}
	tr := rep.StageTraceFor(StageTiming)
	if tr == nil || !strings.Contains(tr.Note, "1 scanned") {
		t.Fatalf("timing trace = %+v, want scan telemetry", tr)
	}
}

func TestTimingJobsIncrementalMatchesFullScan(t *testing.T) {
	// After any accepted change, the spliced job set must be
	// digest-identical to a from-scratch scan of the deployed model —
	// the splice may never serve a stale task set.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	updates := []model.Function{
		fn("telemetry", model.QM, 100000, 2000, 64),
		withRequires(fn("acc", model.ASILD, 20000, 2500, 512), "objects"), // update a flow endpoint
		fn("logger", model.QM, 200000, 1000, 32),
	}
	for _, f := range updates {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("%s rejected: %v (%s)", f.Name, rep.Findings, rep.RejectedAt)
		}
		// A cold pass against an empty table inserts every loaded
		// resource: its edits are the from-scratch job list.
		full, _ := m.timingFootprint(nil, m.DeployedImpl(), nil)
		var fromScan, cached []timingJob
		for _, e := range full {
			fromScan = append(fromScan, e.job)
		}
		for _, cr := range committedEntries(m) {
			cached = append(cached, cr.job)
		}
		if !reflect.DeepEqual(fromScan, cached) {
			t.Fatalf("after %s: committed jobs diverge from full scan:\nscan  %+v\ncache %+v",
				f.Name, fromScan, cached)
		}
	}
}

// --- incremental monitor planning -------------------------------------------

func TestMonitorSpliceMatchesFullPlan(t *testing.T) {
	// Across additions, updates of flow endpoints, and removals — among
	// them changes that give a resource its first load or take its last
	// one away, which insert into or delete from the committed table —
	// the spliced monitor plan must be element-for-element identical to
	// the from-scratch plan over the same implementation model, and the
	// committed timing table to the from-scratch oracle's.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	steps := []struct {
		name   string
		run    func() *Report
		splice bool
		// shape names resources the step must insert into (true) or
		// delete from (false) the committed table.
		shape map[string]bool
	}{
		{"add telemetry", func() *Report { return m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64)) }, true, nil},
		{"update acc", func() *Report {
			return m.ProposeUpdate(withRequires(fn("acc", model.ASILD, 20000, 2500, 512), "objects"))
		}, true, nil},
		{"remove infotainment", func() *Report { return m.ProposeRemoval("infotainment") }, true, nil},
		{"remove telemetry, emptying a processor", func() *Report { return m.ProposeRemoval("telemetry") }, true,
			map[string]bool{"ecu-perf": false}},
		{"add logger, a processor's first load", func() *Report { return m.ProposeUpdate(fn("logger", model.QM, 200000, 1000, 32)) }, true,
			map[string]bool{"ecu-perf": true}},
		{"remove acc, emptying a processor and the network", func() *Report { return m.ProposeRemoval("acc") }, true,
			map[string]bool{"ecu-safe": false, "can0": false}},
		{"re-add acc and its flow, the network's first load", func() *Report {
			fa := m.Deployed().Clone()
			fa.Functions = append(fa.Functions, withRequires(fn("acc", model.ASILD, 20000, 2500, 512), "objects"))
			fa.Flows = append(fa.Flows, model.Flow{From: "radar", To: "acc", Service: "objects", MsgBytes: 8, PeriodUS: 20000})
			return m.ProposeArchitecture(fa)
		}, true, map[string]bool{"ecu-safe": true, "can0": true}},
	}
	for _, step := range steps {
		before := m.deployedRes
		rep := step.run()
		if !rep.Accepted {
			t.Fatalf("%s rejected: %v (%s)", step.name, rep.Findings, rep.RejectedAt)
		}
		for res, insert := range step.shape {
			if was, now := before.find(res) >= 0, m.deployedRes.find(res) >= 0; was == insert || now != insert {
				t.Fatalf("%s: %s in committed table before %v, after %v; want insert=%v", step.name, res, was, now, insert)
			}
		}
		want := planMonitors(m.DeployedImpl())
		if got := rep.FullMonitors(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: materialized plan diverges from full plan:\nmaterialized %+v\nfull         %+v",
				step.name, got, want)
		}
		oracle, _, err := FromScratchTables(m.platform, m.DeployedImpl())
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.FullTiming(); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("%s: committed timing table diverges from the oracle:\ncommitted %+v\noracle    %+v",
				step.name, got, oracle)
		}
		if tr := rep.StageTraceFor(StageMonitors); step.splice && (tr == nil || !strings.Contains(tr.Note, "monitor delta")) {
			t.Fatalf("%s: monitor trace = %+v, want delta telemetry", step.name, tr)
		}
	}
}

// twoSegmentPlatform has one CAN segment per processor pair: a1 (the only
// ASIL-D core) and a2 on netA, b1 and b2 (large RAM) on netB.
func twoSegmentPlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "a1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 1024, MaxSafety: model.ASILD},
			{Name: "a2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 1024, MaxSafety: model.QM},
			{Name: "b1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
			{Name: "b2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
		},
		Networks: []model.Network{
			{Name: "netA", BitsPerSec: 500_000, Attached: []string{"a1", "a2"}, Kind: "can"},
			{Name: "netB", BitsPerSec: 500_000, Attached: []string{"b1", "b2"}, Kind: "can"},
		},
	}
}

func withProvides(f model.Function, svcs ...string) model.Function {
	f.Provides = append(f.Provides, svcs...)
	return f
}

func TestMessageRebuildRescansOnlyChangedNetworks(t *testing.T) {
	// Two flows cross netA (a1 -> a2), one crosses netB (b1 -> b2). An
	// update raising dstA to ASIL-D moves it under the warm mapping onto
	// a1, next to its source: the flow set is unchanged, but the moved
	// endpoint forces the partial synthesis to re-derive the messages,
	// and only netA's list changes. The timing stage must rescan exactly
	// the two affected processors and netA, the monitor delta must still
	// cover every network, and the committed tables must equal the
	// from-scratch oracle's.
	m, err := New(twoSegmentPlatform())
	if err != nil {
		t.Fatal(err)
	}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{
			withProvides(fn("srcA", model.ASILD, 10000, 1000, 64), "sa"),
			withProvides(fn("srcA2", model.ASILD, 10000, 1000, 64), "sa2"),
			withRequires(fn("dstA", model.QM, 20000, 1000, 64), "sa"),
			withRequires(fn("dstA2", model.QM, 20000, 1000, 64), "sa2"),
			withProvides(fn("srcB", model.QM, 10000, 2000, 2048), "sb"),
			withRequires(fn("dstB", model.QM, 10000, 2000, 2048), "sb"),
		},
		Flows: []model.Flow{
			{From: "srcA", To: "dstA", Service: "sa", MsgBytes: 8, PeriodUS: 20000},
			{From: "srcA2", To: "dstA2", Service: "sa2", MsgBytes: 8, PeriodUS: 20000},
			{From: "srcB", To: "dstB", Service: "sb", MsgBytes: 8, PeriodUS: 10000},
		},
	}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("baseline rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	placedOn := func(name string) string {
		return m.deployedSynth.instancesOf[name][0].Processor
	}
	if got := placedOn("dstA"); got != "a2" {
		t.Fatalf("baseline placed dstA on %s, want a2", got)
	}

	rep := m.ProposeUpdate(withRequires(fn("dstA", model.ASILD, 20000, 1000, 64), "sa"))
	if !rep.Accepted {
		t.Fatalf("update rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	if got := placedOn("dstA"); got != "a1" {
		t.Fatalf("update placed dstA on %s, want a1", got)
	}
	if tr := rep.StageTraceFor(StageSynth); tr == nil || !strings.Contains(tr.Note, "messages rebuilt") {
		t.Fatalf("synthesis trace = %+v, want a message rebuild", tr)
	}
	if rep.TimingScans != 3 {
		t.Fatalf("update scanned %d resources, want 3 (a1, a2, netA)", rep.TimingScans)
	}

	impl := m.DeployedImpl()
	if len(impl.Messages) != 2 {
		t.Fatalf("messages = %+v, want sa2 on netA and sb on netB", impl.Messages)
	}
	rates := make(map[string]bool)
	for _, ms := range rep.MonitorDelta {
		if ms.Kind == MonitorRate {
			rates[ms.Target] = true
		}
	}
	for _, msg := range impl.Messages {
		if !rates[msg.Name] {
			t.Fatalf("monitor delta lacks the rate monitor of %s on %s: %+v", msg.Name, msg.Network, rep.MonitorDelta)
		}
	}
	timing, monitors, err := FromScratchTables(m.platform, impl)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.FullTiming(); !reflect.DeepEqual(got, timing) {
		t.Fatalf("committed timing diverges from the oracle:\ncommitted %+v\noracle    %+v", got, timing)
	}
	if got := rep.FullMonitors(); !reflect.DeepEqual(got, monitors) {
		t.Fatalf("committed monitors diverge from the oracle:\ncommitted %+v\noracle    %+v", got, monitors)
	}
}

func withRequires(f model.Function, svcs ...string) model.Function {
	f.Requires = append(f.Requires, svcs...)
	return f
}

func TestMonitorPlanUntouchedByRejection(t *testing.T) {
	// A rejected proposal must leave the deployed monitor plan (and its
	// splice caches) exactly as committed — the monitor rollback
	// invariant.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)
	before := append([]MonitorSpec(nil), m.DeployedMonitors()...)

	rep := m.ProposeUpdate(fn("broken", model.QM, 1000, 5000, 64)) // WCET > deadline
	if rep.Accepted {
		t.Fatal("broken contract accepted")
	}
	if !reflect.DeepEqual(m.DeployedMonitors(), before) {
		t.Fatalf("rejection changed the deployed monitor plan:\nwas %+v\nnow %+v", before, m.DeployedMonitors())
	}

	// A feasible follow-up still splices against the intact plan.
	rep = m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("post-rejection proposal rejected: %v", rep.Findings)
	}
	if want := planMonitors(m.DeployedImpl()); !reflect.DeepEqual(rep.FullMonitors(), want) {
		t.Fatalf("post-rejection monitor plan diverges from full plan")
	}
}

// --- stream scheduler --------------------------------------------------------

// streamParity runs the same change stream through a serial MCC and a
// stream scheduler and asserts identical decisions, findings, and final
// deployed state.
func streamParity(t *testing.T, p *model.Platform, baseline []model.Function, changes []Change, opts ...StreamOption) (*StreamScheduler, []*Report) {
	t.Helper()
	mkMCC := func() *MCC {
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range baseline {
			if rep := m.ProposeUpdate(f); !rep.Accepted {
				t.Fatalf("baseline %s rejected: %v", f.Name, rep.Findings)
			}
		}
		return m
	}

	serial := mkMCC()
	var want []*Report
	for _, c := range changes {
		want = append(want, serial.propose(c))
	}

	streamed := mkMCC()
	sched := NewStreamScheduler(streamed, opts...)
	got := sched.Run(changes)

	if len(got) != len(want) {
		t.Fatalf("stream returned %d reports for %d changes", len(got), len(changes))
	}
	for i := range want {
		if got[i].Accepted != want[i].Accepted || got[i].RejectedAt != want[i].RejectedAt {
			t.Fatalf("change %d (%s): stream decided %v@%q, serial %v@%q",
				i, changes[i], got[i].Accepted, got[i].RejectedAt, want[i].Accepted, want[i].RejectedAt)
		}
		if !reflect.DeepEqual(got[i].Findings, want[i].Findings) {
			t.Fatalf("change %d findings diverge:\nstream %v\nserial %v", i, got[i].Findings, want[i].Findings)
		}
	}
	if !reflect.DeepEqual(streamed.Deployed(), serial.Deployed()) {
		t.Fatal("final deployed architectures diverge")
	}
	if !reflect.DeepEqual(streamed.DeployedImpl().Tasks, serial.DeployedImpl().Tasks) {
		t.Fatal("final task sets diverge")
	}
	if !reflect.DeepEqual(committedEntries(streamed), committedEntries(serial)) {
		t.Fatal("final committed timing tables (digests, task sets, WCRT tables) diverge")
	}
	if !reflect.DeepEqual(streamed.DeployedMonitors(), serial.DeployedMonitors()) {
		t.Fatal("final monitor plans diverge")
	}
	if len(streamed.History) != len(serial.History) {
		t.Fatalf("history length %d vs serial %d", len(streamed.History), len(serial.History))
	}
	return sched, got
}

func upd(f model.Function) Change { return Change{Update: &f} }

func TestStreamSchedulerParityFeasibleStream(t *testing.T) {
	// Independent feasible additions: one optimistic window, everything
	// speculated, zero replays, decisions identical to serial.
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("t2", model.QM, 140000, 2500, 64)),
		upd(fn("t3", model.QM, 160000, 1000, 64)),
	}
	sched, _ := streamParity(t, testPlatform(), []model.Function{fn("base", model.QM, 50000, 5000, 256)}, changes)
	st := sched.Stats()
	if st.Replays != 0 || st.Speculated != len(changes) {
		t.Fatalf("stats = %+v, want %d speculated, 0 replays", st, len(changes))
	}
	if st.Prefetched == 0 {
		t.Fatalf("stats = %+v, want prefetched analyses", st)
	}
}

func TestStreamSchedulerParityWithValidationRejects(t *testing.T) {
	// Broken contracts interleaved with feasible changes are rejected
	// inside the optimistic pass without tainting the window.
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("bad", model.QM, 1000, 5000, 64)), // WCET > deadline
		upd(fn("t1", model.QM, 120000, 1500, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes)
	if got[1].Accepted || got[1].RejectedAt != StageValidate {
		t.Fatalf("broken contract decided %v@%q", got[1].Accepted, got[1].RejectedAt)
	}
	if st := sched.Stats(); st.Replays != 0 {
		t.Fatalf("validation reject caused a replay: %+v", st)
	}
}

func TestStreamSchedulerReplayOnTimingReject(t *testing.T) {
	// An optimistically accepted change that fails its deferred
	// busy-window verdict taints the window: the scheduler must roll back
	// and replay serially, ending with decisions identical to serial —
	// including the changes after the offender in the same window.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	baseline := []model.Function{fn("a", model.ASILD, 10000, 5200, 1)}
	changes := []Change{
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // passes contracts, misses deadline next to a
		upd(fn("t", model.QM, 200000, 100, 1)),    // feasible, evaluated after the offender
	}
	sched, got := streamParity(t, p, baseline, changes)
	if got[0].Accepted || got[0].RejectedAt != StageTiming {
		t.Fatalf("offender decided %v@%q, want timing rejection", got[0].Accepted, got[0].RejectedAt)
	}
	if !got[1].Accepted {
		t.Fatalf("feasible follow-up rejected: %v", got[1].Findings)
	}
	if st := sched.Stats(); st.Replays != 1 {
		t.Fatalf("stats = %+v, want exactly one replay", st)
	}
}

func TestStreamReplayRestoresShapeChangedTable(t *testing.T) {
	// A window whose optimistic commits change the committed table's
	// shape — newbie gives the idle q2 its first load (insert), mover's
	// ASIL-D upgrade takes the last load off q (delete) — and whose last
	// change then fails its deferred busy-window verdict next to a. The
	// rollback must restore the window-start table, so the serial replay
	// ends where a serial controller does.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "s1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
			{Name: "q", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
			{Name: "q2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
		},
	}
	baseline := []model.Function{
		fn("a", model.ASILD, 10000, 5200, 1),
		fn("mover", model.QM, 100000, 1000, 1),
	}
	changes := []Change{
		upd(fn("newbie", model.QM, 100000, 1000, 1)),
		upd(fn("mover", model.ASILD, 100000, 1000, 1)),
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // misses deadlines next to a
	}
	sched, got := streamParity(t, p, baseline, changes, WithStreamWindow(8))
	if !got[0].Accepted || !got[1].Accepted || got[2].Accepted || got[2].RejectedAt != StageTiming {
		t.Fatalf("decisions %v %v %v@%q, want accept, accept, timing rejection",
			got[0].Accepted, got[1].Accepted, got[2].Accepted, got[2].RejectedAt)
	}
	if st := sched.Stats(); st.Windows != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want one window, replayed once", st)
	}

	// The window's rollback point, driven directly: optimistic commits
	// that insert and delete entries, then the rollback the failed
	// verdict triggers.
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range baseline {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("baseline %s rejected: %v", f.Name, rep.Findings)
		}
	}
	start, entries := m.deployedRes, committedEntries(m)
	j := m.beginWindow()
	m.deferChecks = true
	for _, c := range changes {
		if rep := m.propose(c); !rep.Accepted {
			t.Fatalf("%s not accepted optimistically: %v", c, rep.Findings)
		}
	}
	m.deferChecks = false
	if m.deployedRes.find("q2") < 0 || m.deployedRes.find("q") >= 0 {
		t.Fatalf("optimistic commits left q2 at %d and q at %d, want q2 inserted and q deleted",
			m.deployedRes.find("q2"), m.deployedRes.find("q"))
	}
	m.rollbackWindow(j)
	if m.deployedRes != start || !reflect.DeepEqual(committedEntries(m), entries) {
		t.Fatalf("rollback left table %+v, want the window-start table %+v", committedEntries(m), entries)
	}
}

func TestStreamSchedulerReplayOnSafetyReject(t *testing.T) {
	// A fail-operational function that can only be deployed once passes
	// mapping but fails the deferred safety verdict: the window must be
	// replayed and end in a safety-stage rejection, exactly like serial.
	failop := fn("failop", model.ASILD, 40000, 1500, 128)
	failop.Contract.FailOperational = true // Replicas stays 1: redundancy finding
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(failop),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes)
	if got[1].Accepted || got[1].RejectedAt != StageSafety {
		t.Fatalf("failop decided %v@%q, want safety rejection", got[1].Accepted, got[1].RejectedAt)
	}
	if st := sched.Stats(); st.Replays != 1 {
		t.Fatalf("stats = %+v, want exactly one replay", st)
	}
}

func TestStreamSchedulerInlineSecurityRejectWithoutReplay(t *testing.T) {
	// A cross-domain session without an AllowedPeers grant is rejected by
	// the diff-scoped security check inline during the optimistic pass:
	// the verdict is footprint-sized, so it is not deferred, nothing is
	// optimistically committed for it, and the window needs no replay —
	// unlike the pre-scoping engine, where the deferred full check
	// tainted the whole window.
	srv := fn("acc", model.ASILC, 10000, 1000, 64)
	srv.Provides = []string{"accel_cmd"}
	srv.Contract.Domain = "drive"
	cli := fn("telematics", model.QM, 50000, 1000, 64)
	cli.Requires = []string{"accel_cmd"}
	cli.Contract.Domain = "connectivity" // cross-domain, no permission
	changes := []Change{
		upd(cli),
		upd(fn("t0", model.QM, 100000, 2000, 64)),
	}
	sched, got := streamParity(t, testPlatform(), []model.Function{srv}, changes)
	if got[0].Accepted || got[0].RejectedAt != StageSecurity {
		t.Fatalf("cross-domain client decided %v@%q, want security rejection", got[0].Accepted, got[0].RejectedAt)
	}
	if got[0].SecurityChecks == 0 {
		t.Fatalf("security rejection recorded no SecurityChecks telemetry")
	}
	if st := sched.Stats(); st.Replays != 0 {
		t.Fatalf("stats = %+v, want zero replays (scoped security decides inline)", st)
	}
}

func TestStreamSchedulerReplayKeepsDiscardedPassesOnTheBooks(t *testing.T) {
	// The optimistic passes a replay throws away are real pipeline work;
	// the stats must not understate them.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	baseline := []model.Function{fn("a", model.ASILD, 10000, 5200, 1)}
	changes := []Change{
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // deferred timing verdict fails
		upd(fn("t", model.QM, 200000, 100, 1)),
	}
	sched, _ := streamParity(t, p, baseline, changes)
	if st := sched.Stats(); st.DiscardedPasses < len(changes) {
		t.Fatalf("stats = %+v, want >= %d discarded passes accounted", st, len(changes))
	}
}

func TestStreamSchedulerSerializesConflictsAndRemovals(t *testing.T) {
	// Two updates of the same function must not share a window (the
	// second depends on the first's verdict), and a removal is global:
	// it conflicts with everything and runs in its own window.
	changes := []Change{
		upd(fn("svc", model.QM, 100000, 2000, 64)),
		upd(fn("svc", model.QM, 100000, 2500, 64)), // same name: conflict
		upd(fn("t0", model.QM, 120000, 1500, 64)),
		{Remove: "svc"}, // global footprint
		upd(fn("t1", model.QM, 140000, 1000, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes)
	for i, rep := range got {
		if !rep.Accepted {
			t.Fatalf("change %d rejected: %v (%s)", i, rep.Findings, rep.RejectedAt)
		}
	}
	st := sched.Stats()
	if st.Conflicts == 0 {
		t.Fatalf("stats = %+v, want conflict barriers", st)
	}
	if st.Windows < 3 {
		t.Fatalf("stats = %+v, want the stream split across >= 3 windows", st)
	}
}

func TestStreamSchedulerServiceFootprintConflict(t *testing.T) {
	// A provider and a requirer of the same service must not share a
	// window: admitting the requirer depends on the provider's verdict.
	prov := fn("prov", model.QM, 100000, 2000, 64)
	prov.Provides = []string{"svc"}
	cons := fn("cons", model.QM, 100000, 2000, 64)
	cons.Requires = []string{"svc"}
	changes := []Change{upd(prov), upd(cons)}
	sched, got := streamParity(t, testPlatform(), nil, changes)
	for i, rep := range got {
		if !rep.Accepted {
			t.Fatalf("change %d rejected: %v (%s)", i, rep.Findings, rep.RejectedAt)
		}
	}
	if st := sched.Stats(); st.Conflicts != 1 || st.Windows != 2 {
		t.Fatalf("stats = %+v, want the service conflict to split the stream into 2 windows", st)
	}
}

func TestStreamSchedulerLongMixedStreamParity(t *testing.T) {
	// A longer mixed stream (additions, updates, a removal, broken
	// contracts, an unschedulable giant) across several windows.
	var changes []Change
	for i := 0; i < 24; i++ {
		switch {
		case i == 7:
			changes = append(changes, upd(fn("bad", model.QM, 1000, 9000, 64)))
		case i == 13:
			changes = append(changes, Change{Remove: "w3"})
		case i%6 == 5: // update an earlier function
			changes = append(changes, upd(fn(fmt.Sprintf("w%d", i-3), model.QM, 100000, 2100, 64)))
		default:
			changes = append(changes, upd(fn(fmt.Sprintf("w%d", i), model.QM, 100000, 2000, 64)))
		}
	}
	sched, _ := streamParity(t, testPlatform(), nil, changes, WithStreamWindow(6))
	if st := sched.Stats(); st.Windows < 4 {
		t.Fatalf("stats = %+v, want multiple windows", st)
	}
}
