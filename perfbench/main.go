// Command perfbench is Tiamat's end-to-end and per-layer benchmark. It
// builds a cluster for one workload in this process, drives it with
// closed-loop clients through the public instance API for a measured
// window, checks that every result was correct, and prints one JSON
// object as its last line of output.
//
//	bash perfbench/run.sh --workload take --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// command makes an untraced run and then a traced one, and prints the
// per-layer metrics, the decomposition of the traced mean latency, and the
// tracing overhead. See README.md for the workloads and metric
// definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// outDir holds result and span files, relative to the directory the
// command runs in (the repository root).
const outDir = ".bench_build/results"

func main() {
	name := flag.String("workload", "", "workload: take, lookup, farm, farm-r2, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	resident := flag.Int("resident", 4096, "lookup's resident set size (for scan-growth studies)")
	flag.Parse()
	selected := workloads
	if *name != "all" {
		selected = nil
		if w := findWorkload(*name); w != nil {
			selected = []*workload{w}
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *resident < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, resident %d)\n", *name, *seconds, *traced, *resident)
		os.Exit(2)
	}
	// With one workload the summary is its own result; with all of them
	// it sums attempts and failures and prefixes metric names with the
	// workload.
	total := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		p := defaultParams(w.name, *seed, *seconds, *traced == 1)
		p.resident = *resident
		s := execute(w, p)
		if len(selected) == 1 {
			total = s
			break
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of one invocation, written to outDir.
type report struct {
	Host        hostInfo           `json:"host"`
	Correct     bool               `json:"correct"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	Samples     int64              `json:"latency_samples"`
	FailRatio   float64            `json:"fail_ratio"`
	Metrics     map[string]metric  `json:"metrics"`
	Violations  []string           `json:"violations,omitempty"`
	Profiles    []string           `json:"transparency_failures,omitempty"`
	FrameMix    map[string]int64   `json:"traced_frame_mix,omitempty"`
	SetupBuilds []float64          `json:"setup_builds_s"`
	BucketRates []float64          `json:"bucket_throughput_ops_s"`
	ChunkP50    []float64          `json:"chunk_p50_us"`
	ChunkP90    []float64          `json:"chunk_p90_us"`
	ChunkP99    []float64          `json:"chunk_p99_us"`
	Untraced    map[string]float64 `json:"untraced_end_to_end,omitempty"`
	StealS      float64            `json:"host_steal_s"`
	HeapsMB     []float64          `json:"round_heaps_mb"`
	StealShares []float64          `json:"bucket_steal_share"`
	WallRate    float64            `json:"wall_clock_throughput_ops_s"`
}

// execute runs one workload, prints its tables and writes its report.
func execute(w *workload, p params) summary {
	host := describeHost(p)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s seed=%d seconds=%d workload=%s trace=%v\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.Commit, host.Seed, host.Seconds, host.Workload, host.Traced)

	failed := summary{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	steal0, _ := stealSeconds()
	res, err := run(w, p, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return failed
	}
	e2e := res.endToEnd(p)
	rep := report{Host: host, Metrics: map[string]metric{}, SetupBuilds: res.setups}
	rep.BucketRates, rep.ChunkP50, rep.ChunkP90, rep.ChunkP99 = res.rates, res.chunkP50, res.chunkP90, res.chunkP99
	rep.StealShares, rep.WallRate = res.steal, e2e.RawThroughput
	for _, h := range res.heaps {
		rep.HeapsMB = append(rep.HeapsMB, h/1e6)
	}
	bad := res.bad.count()
	rep.Violations = append(rep.Violations, res.bad.first...)
	rep.Attempted, rep.Failed, rep.Samples, rep.FailRatio = res.tried, res.failed, e2e.Samples, e2e.FailRatio

	e2eMetrics := []metric{
		{"setup_s", e2e.SetupS, "s"},
		{"throughput_ops_s", e2e.Throughput, "ops/s"},
		{"latency_p50_us", e2e.P50, "us"},
		{"latency_p90_us", e2e.P90, "us"},
		{"latency_p99_us", e2e.P99, "us"},
		{"cpu_us_per_op", e2e.CPUPerOp, "us"},
		{"heap_mb", e2e.HeapMB, "MB"},
	}
	fmt.Printf("%-8s %-28s %14s %-6s %s\n", "workload", "metric", "value", "unit", "note")
	for _, m := range e2eMetrics {
		fmt.Printf("%-8s %-28s %14.4f %-6s %s\n", w.name, m.Name, m.Value, m.Unit, e2eNote(m.Name, e2e, res))
	}
	fmt.Printf("%-8s %-28s %14.6f %-6s %d failed of %d attempted\n", w.name, "fail_ratio", e2e.FailRatio, "ratio", res.failed, res.tried)

	out := e2eMetrics
	if p.traced {
		rep.Untraced = map[string]float64{}
		for _, m := range e2eMetrics {
			rep.Untraced[m.Name] = m.Value
		}
		tr := newTracer()
		tres, err := run(w, p, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return failed
		}
		bad += tres.bad.count()
		rep.Violations = append(rep.Violations, tres.bad.first...)
		layers, problems := layerTable(tres.env, res, tres)
		rep.Profiles = problems
		rep.FrameMix = tr.frameMix()
		rep.Attempted += tres.tried
		rep.Failed += tres.failed
		fmt.Printf("\nper-layer (traced run, %d ops, %d latency samples):\n", tres.completed, tres.completed)
		for _, m := range layers {
			fmt.Printf("  %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
		for _, pr := range problems {
			fmt.Println("transparency check failed:", pr)
		}
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, p.seed))); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
		out = layers
		bad += len(problems)
	}
	final := map[string]metric{}
	for _, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		rep.Metrics[m.Name] = m
		if !detailOnly[m.Name] {
			final[m.Name] = m
		}
	}
	rep.Correct = bad == 0 && res.tried > 0
	if steal1, _ := stealSeconds(); steal0 >= 0 && steal1 >= 0 {
		rep.StealS = steal1 - steal0
		fmt.Printf("host: %.2f s of CPU stolen by other guests during this invocation\n", rep.StealS)
	}
	for _, v := range rep.Violations {
		fmt.Println("correctness violation:", v)
	}
	writeReport(w, p, &rep)
	return summary{rep.Correct, max(rep.Attempted, 1), rep.Failed, final}
}

func e2eNote(name string, m endToEnd, r *result) string {
	switch name {
	case "setup_s":
		return fmt.Sprintf("median of %d builds", len(r.setups))
	case "throughput_ops_s":
		return fmt.Sprintf("upper quartile of %d buckets over %d clusters, per unstolen second (wall clock %.0f), n=%d", len(r.rates), len(r.heaps), m.RawThroughput, m.Samples)
	case "latency_p50_us":
		return fmt.Sprintf("median of %d chunks of %d ops, n=%d", len(r.chunkP50), chunkSize, m.Samples)
	case "latency_p90_us":
		return fmt.Sprintf("lower quartile of %d chunks of %d ops, n=%d", len(r.chunkP90), chunkSize, m.Samples)
	case "latency_p99_us":
		return fmt.Sprintf("lower quartile of %d chunks, n=%d; recorded, not gated", len(r.chunkP99), m.Samples)
	case "cpu_us_per_op":
		return fmt.Sprintf("user+sys over %d ops", m.Samples)
	case "heap_mb":
		return fmt.Sprintf("live heap after forced GC, median of %d", len(r.heaps))
	}
	return ""
}

func writeReport(w *workload, p params, rep *report) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results dir:", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, p.seed, map[bool]int{false: 0, true: 1}[p.traced])
	b, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", strings.TrimSpace(err.Error()))
	}
}
