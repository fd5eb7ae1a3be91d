// Command admbench is the admission benchmark: it drives the multi-change
// controller through its public entry points on named workloads, checks
// every decision, and prints each metric by name and unit, ending with
// one JSON line. See README.md for the workloads and metrics.
//
//	bash admbench/run.sh --workload admit-2048p --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

var workloads = map[string]func(config) (*result, error){
	"admit-2048p":       runAdmit,
	"stream-churn-256p": runStream,
	"fleet-open-128p":   runFleet,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("admbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: admit-2048p, stream-churn-256p or fleet-open-128p")
	seed := fs.Int64("seed", 1, "seed the workload's change streams are drawn from")
	seconds := fs.Float64("seconds", 12, "how long the run measures")
	traceFlag := fs.Int("trace", 0, "1 records spans to .bench_out/spans-<workload>.jsonl and prints the per-layer metrics instead of the end-to-end ones")
	profile := fs.String("profile", "", "directory to write a CPU and a heap profile of the run into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "admbench: unknown workload %q; choose one of %v\n", *workload, workloadNames())
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "admbench: --seconds must be positive")
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintln(stderr, "admbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds}
	if *traceFlag == 1 {
		cfg.tr = newTracer()
	}

	stopProfile := func() error { return nil }
	if *profile != "" {
		var err error
		if stopProfile, err = startProfile(*profile, *workload); err != nil {
			fmt.Fprintf(stderr, "admbench: %v\n", err)
			return 1
		}
	}
	res, err := runWorkload(cfg)
	if perr := stopProfile(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(stderr, "admbench: %s: %v\n", *workload, err)
		return 1
	}

	table, values := endToEnd, res.e2e
	if cfg.tr != nil {
		table, values = perLayer, res.layer
		spans := cfg.tr.snapshot()
		values["trace.spans"] = float64(len(spans))
		path := filepath.Join(".bench_out", "spans-"+*workload+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintf(stderr, "admbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(spans), path)
	}
	out, err := values.report(table)
	if err != nil {
		fmt.Fprintf(stderr, "admbench: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		*workload, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0))
	for _, d := range table {
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.Name, out[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "metric failed_frac %.6g ratio\n", ratio(float64(res.failed), float64(res.attempted)))
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "admbench: check failed: %s\n", f)
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(stderr, "admbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// startProfile starts a CPU profile of the run; the returned function
// stops it and writes a heap profile beside it.
func startProfile(dir, workload string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create profile directory: %w", err)
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu-"+workload+".pprof"))
	if err != nil {
		return nil, fmt.Errorf("create CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("write CPU profile: %w", err)
		}
		heap, err := os.Create(filepath.Join(dir, "heap-"+workload+".pprof"))
		if err != nil {
			return fmt.Errorf("create heap profile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(heap); err != nil {
			heap.Close()
			return fmt.Errorf("write heap profile: %w", err)
		}
		if err := heap.Close(); err != nil {
			return fmt.Errorf("write heap profile: %w", err)
		}
		return nil
	}, nil
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
