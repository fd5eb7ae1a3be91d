package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/mcc"
	"repro/internal/scenario"
)

// admit-2048p: one MCC on the 2048-processor fleet (128 CAN segments),
// decided by one caller one change at a time (a closed loop). The
// platform-proportional stage terms dominate here, and the scheduler and
// fleet layers are idle. A removal takes a telemetry function the
// stream added earlier and turns into an add when there is none, so with
// equal weights the added functions would wander like a random walk, to
// hundreds by the end of a run on some seeds and not on others. Removals
// therefore weigh a little more than adds: the added functions stay a
// few dozen at most, the deployed set stays at its baseline size, and
// neither the seed nor the run's length changes what a change costs.
const (
	admitProcessors = 2048
	// admitMaxRate bounds the changes a run can decide per second: the
	// timed part of the stream is generated up front for that many, and
	// it stays live while the run decides it. A faster controller
	// exhausts it early and measures over fewer blocks.
	admitMaxRate = 12000
	// admitHistory is the controller's default bound on its report
	// history. The history is trimmed once it holds twice the bound, so
	// a trim comes at least once every admitHistory decisions.
	admitHistory = 8192
	// admitReserve changes beyond the timed part of the stream are kept
	// for the untimed run-on to the next history trim, so that run-on
	// reaches a trim however many changes the timed part used.
	admitReserve = 2 * admitHistory
	// traceBlock is how many changes run traced or untraced in a row
	// when a traced run interleaves the two to measure tracing overhead.
	traceBlock = 512
	// admitBlock is the block of changes the end-to-end figures take
	// their median over: about a second of work, with enough samples
	// for a p99. A fresh controller is also set up, untimed for the
	// decisions, after every block, so that the set-up samples spread
	// over the whole run as the blocks do.
	admitBlock = 8192
)

func runAdmit(cfg config) (*result, error) {
	res := newResult()
	spec := scenario.DefaultFleetSpec(admitProcessors)
	spec.Mix = scenario.ChangeMix{Add: 3, Update: 3, Remove: 4, Broken: 1}
	f := scenario.GenFleet(spec)
	timed := int(admitMaxRate * cfg.seconds)
	changes := f.ChangesWithSeed(timed+admitReserve, cfg.seed)
	kinds := make([]string, len(changes))
	for i, c := range changes {
		kinds[i] = kindOf(c)
	}
	var setups []float64
	m, took, err := setupAdmit(cfg.tr, f)
	if err != nil {
		return nil, err
	}
	setups = append(setups, took)

	root := cfg.tr.id()
	runtime.GC()
	var rt runtimeAcc
	rt0 := readRuntime()
	cpa0 := m.TimingCacheStats()
	// Latencies and block walls, split by whether the block was traced.
	var lat [2][]float64
	var wall [2]time.Duration
	var last *mcc.Report
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	blockStart := start
	n := 0
	for ; n < timed; n++ {
		traced := tracedBlock(cfg.tr, n)
		t0 := time.Now()
		rep, name := propose(m, changes[n])
		t1 := time.Now()
		lat[traced] = append(lat[traced], usOf(t1.Sub(t0)))
		if traced == 1 {
			cfg.tr.call(name, fmt.Sprintf("c%d", n), kinds[n], root, t0, t1, rep)
		}
		if rep.Accepted {
			last = rep
		}
		if f := reportFault(kinds[n], rep); f != "" {
			res.failf("change %d: %s", n, f)
		}
		if (n+1)%traceBlock == 0 {
			wall[traced] += t1.Sub(blockStart)
			blockStart = t1
			if wall[0]+wall[1] >= deadline {
				n++
				break
			}
		}
		if (n+1)%admitBlock == 0 {
			rt.add(rt0, readRuntime())
			_, took, err := setupAdmit(cfg.tr, f)
			if err != nil {
				return nil, err
			}
			setups = append(setups, took)
			rt0 = readRuntime()
			blockStart = time.Now()
		}
	}
	end := time.Now()
	if n%traceBlock != 0 {
		wall[tracedBlock(cfg.tr, n-1)] += end.Sub(blockStart)
	}
	if n == timed {
		res.notef("warning: the timed stream ran out after %v", wall[0]+wall[1])
	}
	rt.add(rt0, readRuntime())
	cpa1 := m.TimingCacheStats()
	measured := n
	res.e2e["setup_s"] = median(setups)
	res.notef("setup_s is the median of %d set-ups", len(setups))

	// The controller trims its bounded report history in bulk, so its
	// live heap is a sawtooth over the number of changes decided. Decide
	// changes untimed up to the next trim, so that the heap is read at
	// the same point of that cycle whatever the run's length.
	trimmed := false
	for prev := len(m.History); !trimmed && n < len(changes); n++ {
		rep, _ := propose(m, changes[n])
		if f := reportFault(kinds[n], rep); f != "" {
			res.failf("change %d: %s", n, f)
		}
		if rep.Accepted {
			last = rep
		}
		trimmed = len(m.History) < prev
		prev = len(m.History)
	}
	if !trimmed {
		res.failf("the report history was not trimmed within %d changes after the timed run", admitReserve)
	}
	res.attempted = n

	rate, blocks := blockRate(lat[0], admitBlock, 1)
	res.e2e["changes_per_s"] = rate
	res.notef("changes_per_s is the median of %d blocks of %d changes", blocks, admitBlock)
	res.blockTail(res.layer, "admit_p99_us", lat[0], admitBlock, 0.99)
	res.tail(res.e2e, "admit_p50_us", lat[0], 0.50)
	changes = nil // the input is not the controller's heap
	res.e2e["heap_mb"] = liveHeapMB()

	res.checkTables("admit-2048p", f.Platform, m, last)

	if cfg.tr != nil {
		cfg.tr.record(span{ID: root, Name: "admit-2048p", Start: cfg.tr.at(start), End: cfg.tr.at(end)})
		rt.report(res.layer, measured)
		res.layer["cpa.hit_ratio"] = ratio(float64(cpa1.Hits-cpa0.Hits), float64(cpa1.Hits-cpa0.Hits+cpa1.Misses-cpa0.Misses))
		res.layer["cpa.misses_per_change"] = ratio(float64(cpa1.Misses-cpa0.Misses), float64(measured))
		res.layer["cpa.flight_waits"] = float64(cpa1.FlightWaits - cpa0.FlightWaits)
		res.layer["cpa.entries"] = float64(cpa1.Entries)
		traceOverhead(res, float64(len(lat[1]))/wall[1].Seconds(), float64(len(lat[0]))/wall[0].Seconds(), lat[1], lat[0])
		spans := cfg.tr.snapshot()
		spanLayers(res.layer, spans, selfTimes(spans), "mcc.ProposeUpdate", "mcc.ProposeRemoval")
	}
	return res, nil
}

// setupAdmit sets up a controller on the workload's platform after a
// forced collection, so that each set-up starts from the same collector
// state, and returns it with the seconds the set-up took.
func setupAdmit(tr *tracer, f *scenario.Fleet) (*mcc.MCC, float64, error) {
	runtime.GC()
	m, took, err := setupMCC(tr, f.Platform, f.Baseline)
	if err != nil {
		return nil, 0, fmt.Errorf("admit setup: %w", err)
	}
	return m, took.Seconds(), nil
}

// tracedBlock returns 1 when change n falls in a traced block: a traced
// run alternates untraced and traced blocks of traceBlock changes.
func tracedBlock(tr *tracer, n int) int {
	if tr != nil && (n/traceBlock)%2 == 1 {
		return 1
	}
	return 0
}

// traceOverhead reports traced against untraced throughput and median
// latency from the interleaved halves of a traced run.
func traceOverhead(res *result, tracedRate, untracedRate float64, tracedLat, untracedLat []float64) {
	res.layer["trace.changes_per_s_ratio"] = ratio(tracedRate, untracedRate)
	res.layer["trace.admit_p50_ratio"] = ratio(median(tracedLat), median(untracedLat))
}
