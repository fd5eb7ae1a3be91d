package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "stage.validate_us", "fleet.shed_frac.mid", "go.gc_cpu_frac", "9lives", "a-b"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_lead", ".lead", "admit_p99_µs", "has space", "slash/name", "colon:name", long} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the charset rule", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the benchmark description at the
// repository root in step with the metrics the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram reports %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram reports %v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
}

func TestReportRejectsUnlistedMetric(t *testing.T) {
	m := metricValues{"setup_s": 1.5, "not_listed": 2}
	if _, err := m.report(endToEnd); err == nil {
		t.Error("an unlisted metric was reported")
	}
	out, err := metricValues{"setup_s": 1.5}.report(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(endToEnd) || out["setup_s"].Value != 1.5 || out["setup_s"].Unit != "s" {
		t.Errorf("report = %v", out)
	}
}
