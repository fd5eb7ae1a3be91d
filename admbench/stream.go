package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mcc"
	"repro/internal/scenario"
)

// stream-churn-256p: the 256-processor fleet (16 CAN segments) decided by
// the stream scheduler with default options. Removals are global
// footprints that close windows; cross-domain clients add flows, leave
// the single-function fast path and rebuild messages and connections,
// and about half of them are rejected at security, which exercises
// rollback. A serial pass over the same stream on a fresh MCC is both
// the decision oracle and the scheduler's baseline.
//
// A traced run also decides each traced round with the sharded
// scheduler (WithShardedWindows) on a third fresh MCC, held to the same
// serial oracle; the shard counters and its gain over the serial pass
// come from that leg.
//
// The run is a sequence of rounds. Each round decides a fresh stream of
// streamRound changes on fresh MCCs, so adds outpacing removals never
// grow the deployed set beyond one round's worth and every round costs
// the same; each round draws its own stream, so a run averages over many
// draws of the mix. The scheduler takes each round as successive Run
// calls of streamChunk changes, the queue of a caller that submits what
// has accumulated: a change's verdict latency is the span of the Run
// call that decided it.
const (
	streamProcessors = 256
	streamRound      = 1024
	streamChunk      = 32
	// streamTailRounds rounds make one block for the p99 verdict latency:
	// 1024 Run calls, so ten lie beyond the p99.
	streamTailRounds = 32
	// streamHeapEvery: the live heap is read after every so many rounds,
	// with the round's controller still live, and reported as a median.
	streamHeapEvery = 8
)

func runStream(cfg config) (*result, error) {
	res := newResult()
	spec := scenario.DefaultFleetSpec(streamProcessors)
	spec.Mix = scenario.ChangeMix{Add: 4, Update: 3, Remove: 3, Broken: 1, CrossDomain: 1}
	f := scenario.GenFleet(spec)

	var setups []float64
	var lat [2][]float64
	var runSpan [2]time.Duration
	var runChanges [2]int
	var serialSpan [2]time.Duration
	var shardedSpan time.Duration
	var st, shardedSt mcc.StreamStats
	var rt runtimeAcc
	var hits, misses, waits int64
	var entries int
	var heapMB []float64
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	runStart := time.Now()
	for round := 0; runSpan[0]+runSpan[1] < deadline; round++ {
		changes := f.ChangesWithSeed(streamRound, cfg.seed*1_000_003+int64(round))
		kinds := make([]string, len(changes))
		for i, c := range changes {
			kinds[i] = kindOf(c)
		}
		tr := cfg.tr
		traced := 0
		if tr != nil && round%2 == 1 {
			traced = 1
		} else {
			tr = nil
		}
		serial, took, err := setupMCC(tr, f.Platform, f.Baseline)
		if err != nil {
			return nil, fmt.Errorf("stream setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		m, took, err := setupMCC(tr, f.Platform, f.Baseline)
		if err != nil {
			return nil, fmt.Errorf("stream setup: %w", err)
		}
		setups = append(setups, took.Seconds())

		runtime.GC()
		root := tr.id()
		sched := mcc.NewStreamScheduler(m)
		cs0 := m.TimingCacheStats()
		reports := make([]*mcc.Report, 0, len(changes))
		rt0 := readRuntime()
		start := time.Now()
		for lo := 0; lo < len(changes); lo += streamChunk {
			hi := min(lo+streamChunk, len(changes))
			t0 := time.Now()
			reps := sched.Run(changes[lo:hi])
			t1 := time.Now()
			lat[traced] = append(lat[traced], usOf(t1.Sub(t0)))
			runSpan[traced] += t1.Sub(t0)
			if tr != nil {
				tr.call("mcc.StreamScheduler.Run", fmt.Sprintf("r%d-c%d-%d", round, lo, hi-1), "", root, t0, t1, reps...)
			}
			reports = append(reports, reps...)
		}
		end := time.Now()
		rt.add(rt0, readRuntime())
		runChanges[traced] += len(changes)
		tr.record(span{ID: root, Name: "stream", Change: fmt.Sprintf("r%d", round), Start: tr.at(start), End: tr.at(end)})
		s := sched.Stats()
		st.Windows += s.Windows
		st.Conflicts += s.Conflicts
		st.Prefetched += s.Prefetched
		st.Speculated += s.Speculated
		st.DiscardedPasses += s.DiscardedPasses
		st.Replays += s.Replays
		if s.PanicsRecovered > 0 {
			res.failf("round %d: scheduler recovered %d panics", round, s.PanicsRecovered)
		}
		cs := m.TimingCacheStats()
		hits += cs.Hits - cs0.Hits
		misses += cs.Misses - cs0.Misses
		waits += cs.FlightWaits - cs0.FlightWaits
		entries = cs.Entries

		var shardedReports []*mcc.Report
		if tr != nil {
			var err error
			var took time.Duration
			shardedReports, took, err = runSharded(res, tr, f, changes, round, &shardedSt)
			if err != nil {
				return nil, err
			}
			shardedSpan += took
		}

		// The serial pass: the oracle every stream decision must equal,
		// and the baseline the scheduler's gain is measured against.
		serialRoot := tr.id()
		serialStart := time.Now()
		var last *mcc.Report
		for i, c := range changes {
			t0 := time.Now()
			want, name := propose(serial, c)
			t1 := time.Now()
			serialSpan[traced] += t1.Sub(t0)
			if tr != nil {
				tr.call(name, fmt.Sprintf("r%d-c%d", round, i), kinds[i], serialRoot, t0, t1, want)
			}
			got := reports[i]
			if !sameDecision(got, want) {
				res.failf("round %d change %d: stream decided accepted=%v at %q %v, serial accepted=%v at %q %v",
					round, i, got.Accepted, got.RejectedAt, got.Findings, want.Accepted, want.RejectedAt, want.Findings)
			}
			if f := reportFault(kinds[i], got); f != "" {
				res.failf("round %d change %d: %s", round, i, f)
			}
			if shardedReports != nil {
				if got := shardedReports[i]; !sameDecision(got, want) {
					res.failf("round %d change %d: sharded stream decided accepted=%v at %q %v, serial accepted=%v at %q %v",
						round, i, got.Accepted, got.RejectedAt, got.Findings, want.Accepted, want.RejectedAt, want.Findings)
				}
				if f := reportFault(kinds[i], shardedReports[i]); f != "" {
					res.failf("round %d change %d: sharded: %s", round, i, f)
				}
			}
			if got.Accepted {
				last = got
			}
		}
		tr.record(span{ID: serialRoot, Name: "serial", Change: fmt.Sprintf("r%d", round), Start: tr.at(serialStart), End: tr.at(time.Now())})
		res.checkTables(fmt.Sprintf("round %d", round), f.Platform, m, last)
		res.attempted += len(changes)
		if round%streamHeapEvery == streamHeapEvery-1 {
			heapMB = append(heapMB, liveHeapMB())
			runtime.KeepAlive(m)
		}
	}
	if len(heapMB) == 0 {
		heapMB = append(heapMB, liveHeapMB())
	}
	res.notef("rounds %d of %d changes in %v", res.attempted/streamRound, streamRound, time.Since(runStart).Round(time.Millisecond))

	res.e2e["setup_s"] = median(setups)
	chunks := streamRound / streamChunk
	rate, blocks := blockRate(lat[0], chunks, streamChunk)
	res.e2e["changes_per_s"] = rate
	res.notef("changes_per_s is the median of %d rounds", blocks)
	res.blockTail(res.layer, "admit_p99_us", lat[0], streamTailRounds*chunks, 0.99)
	res.tail(res.e2e, "admit_p50_us", lat[0], 0.50)
	res.e2e["heap_mb"] = median(heapMB)

	if cfg.tr != nil {
		n := float64(res.attempted)
		rt.report(res.layer, res.attempted)
		res.layer["sched.gain_vs_serial"] = ratio((serialSpan[0] + serialSpan[1]).Seconds(), (runSpan[0] + runSpan[1]).Seconds())
		res.layer["sched.sharded_gain_vs_serial"] = ratio(serialSpan[1].Seconds(), shardedSpan.Seconds())
		res.layer["sched.windows_per_change"] = ratio(float64(st.Windows), n)
		res.layer["sched.global_windows_per_change"] = ratio(float64(shardedSt.GlobalWindows), float64(runChanges[1]))
		res.layer["sched.conflicts_per_change"] = ratio(float64(st.Conflicts), n)
		res.layer["sched.prefetched_per_change"] = ratio(float64(st.Prefetched), n)
		res.layer["sched.speculated_frac"] = ratio(float64(st.Speculated), n)
		res.layer["sched.discarded_frac"] = ratio(float64(st.DiscardedPasses), n)
		res.layer["sched.replays"] = float64(st.Replays)
		res.layer["sched.shards"] = float64(shardedSt.Shards)
		res.layer["cpa.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		res.layer["cpa.misses_per_change"] = ratio(float64(misses), n)
		res.layer["cpa.flight_waits"] = float64(waits)
		res.layer["cpa.entries"] = float64(entries)
		traceOverhead(res, float64(runChanges[1])/runSpan[1].Seconds(), float64(runChanges[0])/runSpan[0].Seconds(), lat[1], lat[0])
		spans := cfg.tr.snapshot()
		self := selfTimes(spans)
		spanLayers(res.layer, spans, self, "mcc.StreamScheduler.Run")
		var dur, over time.Duration
		for i := range spans {
			if s := &spans[i]; s.Name == "mcc.StreamScheduler.Run" {
				dur += s.dur()
				over += self[s.ID]
			}
		}
		res.layer["sched.overhead_frac"] = ratio(float64(over), float64(dur))
	}
	return res, nil
}

// runSharded decides one round's stream with the sharded scheduler on a
// fresh MCC, in Run calls of streamChunk changes as the default
// scheduler takes them, adds its stream statistics to st, checks its
// committed tables, and returns its reports with the time its Run calls
// took.
func runSharded(res *result, tr *tracer, f *scenario.Fleet, changes []mcc.Change, round int, st *mcc.StreamStats) ([]*mcc.Report, time.Duration, error) {
	m, _, err := setupMCC(nil, f.Platform, f.Baseline)
	if err != nil {
		return nil, 0, fmt.Errorf("sharded stream setup: %w", err)
	}
	runtime.GC()
	root := tr.id()
	sched := mcc.NewStreamScheduler(m, mcc.WithShardedWindows())
	reports := make([]*mcc.Report, 0, len(changes))
	var took time.Duration
	start := time.Now()
	for lo := 0; lo < len(changes); lo += streamChunk {
		hi := min(lo+streamChunk, len(changes))
		t0 := time.Now()
		reps := sched.Run(changes[lo:hi])
		t1 := time.Now()
		took += t1.Sub(t0)
		tr.call("mcc.StreamScheduler.Run/sharded", fmt.Sprintf("r%d-c%d-%d", round, lo, hi-1), "", root, t0, t1, reps...)
		reports = append(reports, reps...)
	}
	tr.record(span{ID: root, Name: "sharded", Change: fmt.Sprintf("r%d", round), Start: tr.at(start), End: tr.at(time.Now())})
	s := sched.Stats()
	st.GlobalWindows += s.GlobalWindows
	st.Shards = max(st.Shards, s.Shards)
	if s.PanicsRecovered > 0 {
		res.failf("round %d: sharded scheduler recovered %d panics", round, s.PanicsRecovered)
	}
	var last *mcc.Report
	for _, r := range reports {
		if r.Accepted {
			last = r
		}
	}
	res.checkTables(fmt.Sprintf("round %d sharded", round), f.Platform, m, last)
	return reports, took, nil
}
