package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef declares one reported metric. The end-to-end and per-layer
// tables below are the benchmark's contract: BENCHMARK.json lists exactly
// these names and units (metrics_test.go holds the two in step), a run
// with tracing off prints every end-to-end metric, and a traced run
// prints every per-layer metric, 0 where the workload leaves that layer
// idle.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"changes_per_s", "1/s", "higher"},
	{"admit_p50_us", "us", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer has no bounds. admit_p99_us heads it: it is the end-to-end
// tail latency, but on a shared 2-core machine it moves by a quarter to
// a third between runs with the host's load, more than any bound a
// regression gate could hold it to.
var perLayer = []metricDef{
	{"admit_p99_us", "us", "lower"},
	{"stage.validate_us", "us", "lower"},
	{"stage.mapping_us", "us", "lower"},
	{"stage.synthesis_us", "us", "lower"},
	{"stage.safety_us", "us", "lower"},
	{"stage.security_us", "us", "lower"},
	{"stage.timing_us", "us", "lower"},
	{"stage.monitors_us", "us", "lower"},
	{"stage.commit_us", "us", "lower"},
	{"stage.timing_scans_per_change", "count", "lower"},
	{"stage.checks_per_change", "count", "lower"},
	{"mcc.unattributed_frac", "ratio", "lower"},
	{"mcc.passes_per_change", "ratio", "lower"},
	{"mcc.allocs_per_change", "count", "lower"},
	{"mcc.bytes_per_change", "B", "lower"},
	{"kind.add_us", "us", "lower"},
	{"kind.update_us", "us", "lower"},
	{"kind.remove_us", "us", "lower"},
	{"kind.flow_us", "us", "lower"},
	{"kind.invalid_us", "us", "lower"},
	{"sched.overhead_frac", "ratio", "lower"},
	{"sched.gain_vs_serial", "ratio", "higher"},
	{"sched.sharded_gain_vs_serial", "ratio", "higher"},
	{"sched.windows_per_change", "ratio", "lower"},
	{"sched.global_windows_per_change", "ratio", "lower"},
	{"sched.conflicts_per_change", "ratio", "lower"},
	{"sched.prefetched_per_change", "ratio", "higher"},
	{"sched.speculated_frac", "ratio", "higher"},
	{"sched.discarded_frac", "ratio", "lower"},
	{"sched.replays", "count", "lower"},
	{"sched.shards", "count", "higher"},
	{"cpa.hit_ratio", "ratio", "higher"},
	{"cpa.misses_per_change", "ratio", "lower"},
	{"cpa.flight_waits", "count", "higher"},
	{"cpa.entries", "count", "lower"},
	{"fleet.call_p50_us", "us", "lower"},
	{"fleet.call_p99_us", "us", "lower"},
	{"fleet.queue_p99_us", "us", "lower"},
	{"fleet.shed_frac.low", "ratio", "lower"},
	{"fleet.shed_frac.mid", "ratio", "lower"},
	{"fleet.shed_frac.high", "ratio", "lower"},
	{"fleet.backlog_max", "count", "lower"},
	{"gen.late_p50_us", "us", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.gc_pause_p99_us", "us", "lower"},
	{"go.sched_latency_p99_us", "us", "lower"},
	{"trace.changes_per_s_ratio", "ratio", "higher"},
	{"trace.admit_p50_ratio", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
}

// metricName is the charset and length rule every metric name obeys.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValues collects a run's measured values by name.
type metricValues map[string]float64

// report renders the values of one metric table, in table order. A name
// the workload did not measure reads 0 (its layer was idle); a measured
// name missing from the table is an error, so the tables stay complete.
func (m metricValues) report(table []metricDef) (map[string]jsonMetric, error) {
	known := make(map[string]bool, len(table))
	out := make(map[string]jsonMetric, len(table))
	for _, d := range table {
		known[d.Name] = true
		out[d.Name] = jsonMetric{Value: m[d.Name], Unit: d.Unit}
	}
	var extra []string
	for name := range m {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics %v are not in the reported table", extra)
	}
	return out, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
