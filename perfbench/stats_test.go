package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	odd := []float64{3, 1, 2}
	if got := median(odd); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if odd[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

func TestNearestRankQuartiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := lowerQuartile(xs); got != 1 {
		t.Errorf("lowerQuartile = %v, want 1", got)
	}
	if got := upperQuartile(xs); got != 3 {
		t.Errorf("upperQuartile = %v, want 3", got)
	}
	if xs[0] != 4 {
		t.Error("quartile helpers reordered their input")
	}
	// Two values: an interpolating method such as Python's default
	// quantiles would extrapolate below the smallest; these stay within
	// the data.
	if got := lowerQuartile([]float64{10, 20}); got != 10 {
		t.Errorf("lowerQuartile of two = %v, want 10", got)
	}
}

func TestPerOpAndRatio(t *testing.T) {
	if got := perOp(30, 10); got != 3 {
		t.Errorf("perOp = %v", got)
	}
	if got := perOp(30, 0); got != 0 {
		t.Errorf("perOp with no ops = %v, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
}

func TestAgree(t *testing.T) {
	for _, c := range []struct {
		a, b float64
		ok   bool
	}{
		{10, 10.9, true}, {10, 11.5, false}, {0.01, 0.05, true}, {0, 0.2, false},
	} {
		if got := agree(c.a, c.b); got != c.ok {
			t.Errorf("agree(%v, %v) = %v, want %v", c.a, c.b, got, c.ok)
		}
	}
}

func TestKeysAreUniqueAndInvertible(t *testing.T) {
	e := newEnv(params{seed: 42, window: 1, rounds: 1, buckets: 1}, nil, &violations{})
	seen := map[int64]bool{}
	for id := 0; id < 3; id++ {
		c := newClient(e, id, time.Time{}, time.Time{})
		for n := 1; n <= 100; n++ {
			k := c.key()
			if k < 0 || seen[k] {
				t.Fatalf("client %d key %d: negative or duplicate", id, k)
			}
			seen[k] = true
			if gotID, gotSeq := e.unkey(k); gotID != id || gotSeq != uint64(n) {
				t.Fatalf("unkey(%d) = %d,%d; want %d,%d", k, gotID, gotSeq, id, n)
			}
		}
	}
	if string(e.payload(7)) != string(e.payload(7)) || string(e.payload(7)) == string(e.payload(8)) {
		t.Error("payloads must be a deterministic function of the key")
	}
}

func TestExecutedCatchesDuplicates(t *testing.T) {
	x := &executed{bits: map[int][]uint64{}}
	if x.mark(0, 130) || x.mark(1, 130) || x.mark(0, 3) {
		t.Fatal("first executions flagged as duplicates")
	}
	if !x.mark(0, 130) {
		t.Fatal("second execution of a task not flagged")
	}
}

func TestGrantedRatesRemoveStolenTime(t *testing.T) {
	got := grantedRates([]float64{100, 100, 100, 100}, []float64{0, 0.2, 0.9, 1})
	want := []float64{100, 125, 200, 200} // capped at maxStealShare = 0.5
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("bucket %d: %v, want %v", i, got[i], want[i])
		}
	}
}
