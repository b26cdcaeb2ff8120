package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// tiny is a run small enough for a unit test: two builds with half a
// second of measured traffic each, and a small resident set. The warm-up
// covers the first contact timeouts a fresh farm cluster can take.
func tiny(workload string, traced bool) params {
	return params{
		workload: workload,
		seed:     3,
		window:   time.Second,
		warmup:   300 * time.Millisecond,
		setups:   1,
		rounds:   2,
		buckets:  2,
		resident: 128,
		clients:  2,
		traced:   traced,
	}
}

// TestSmokeEveryWorkload runs every workload at tiny scale and requires a
// clean correctness check. farm-r2 is exempt from the throughput floor: its
// replica write-through stalls are a known defect the benchmark records.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, tiny(w.name, false), nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := res.bad.count(); n != 0 {
				t.Fatalf("%d correctness violations: %v", n, res.bad.first)
			}
			if len(res.steal) != len(res.rates) {
				t.Fatalf("%d steal shares for %d rate buckets", len(res.steal), len(res.rates))
			}
			if w.name != "farm-r2" && res.completed == 0 {
				t.Fatal("no operation completed in the window")
			}
			m := res.endToEnd(res.env.p)
			if m.SetupS <= 0 || (res.completed > 0 && (m.P50 <= 0 || m.P90 < m.P50 || m.P99 < m.P90 || m.CPUPerOp <= 0)) {
				t.Fatalf("implausible end-to-end metrics: %+v", m)
			}
		})
	}
}

// TestSmokeTracedTake runs the traced path once: the wrappers must leave
// the counter profiles unchanged, and the layer table must account for the
// traced mean latency exactly (layers plus residual).
func TestSmokeTracedTake(t *testing.T) {
	w := findWorkload("take")
	p := tiny("take", true)
	p.window = time.Second
	untraced, err := run(w, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := run(w, p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := traced.bad.count(); n != 0 {
		t.Fatalf("traced run: %d correctness violations: %v", n, traced.bad.first)
	}
	layers, problems := layerTable(traced.env, untraced, traced)
	if len(problems) != 0 {
		t.Errorf("transparency check: %v", problems)
	}
	got := map[string]float64{}
	for _, m := range layers {
		got[m.Name] = m.Value
	}
	sum := got["residual_us_per_op"]
	for name, v := range got {
		if strings.HasPrefix(name, "layer.") {
			sum += v
		}
	}
	if mean := got["traced_mean_latency_us"]; mean <= 0 || math.Abs(sum-mean) > 1e-6*mean {
		t.Errorf("layers plus residual = %v, traced mean latency = %v", sum, mean)
	}
	if got["wire.frames_per_op"] <= 0 || got["transport.send_us"] <= 0 || got["lease.grants_per_op"] <= 0 {
		t.Errorf("traced take should show frames, send time and lease grants: %v", got)
	}
	if tr.counts().sends == 0 || len(tr.spans) == 0 {
		t.Error("tracer recorded no sends or spans")
	}
}
