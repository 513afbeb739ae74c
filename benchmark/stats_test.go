package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{2.1, 2.4, 2.2, 2.3, 2.0, 2.6, 2.5, 2.7, 2.9, 2.8}, [3]float64{2.175, 2.45, 2.725}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSteady(t *testing.T) {
	// Ten runs within +-1% of 100: spread 0.0115, steady for a 0.1 bound.
	calm := []float64{99, 99.5, 100, 100.5, 101, 99.2, 100.2, 100.8, 99.8, 100.1}
	ok, sp, err := steady(calm, 0.1)
	if err != nil || !ok {
		t.Errorf("steady(calm, 0.1) = %v, %v, %v; want true", ok, sp, err)
	}
	// The same runs are not steady for a bound of 0.03: the spread must stay
	// below a third of the bound.
	if ok, _, _ := steady(calm, 0.03); ok {
		t.Errorf("steady(calm, 0.03) = true, want false (spread %v)", sp)
	}
	// Runs that swing by 20% are not steady for a 0.1 bound.
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	if ok, sp, _ := steady(noisy, 0.1); ok {
		t.Errorf("steady(noisy, 0.1) = true (spread %v), want false", sp)
	}
	if _, _, err := steady([]float64{0, 0, 0}, 0.1); err == nil {
		t.Error("steady with median 0: want an error")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		label string
		value float64
	}{
		{20, "p50", 10},
		{100, "p90", 90},
		{999, "p90", 900},
		{1000, "p99", 990},
		{10000, "p99.9", 9990},
	} {
		got, err := tail(seq(tc.n))
		if err != nil {
			t.Fatalf("tail(%d samples): %v", tc.n, err)
		}
		if got.Label != tc.label || got.Value != tc.value || got.N != tc.n {
			t.Errorf("tail(%d samples) = %+v, want %s %v over %d", tc.n, got, tc.label, tc.value, tc.n)
		}
	}
	if _, err := tail(seq(19)); err == nil {
		t.Error("tail of 19 samples: want an error, no percentile has 10 beyond")
	}
	if _, err := quantileAt(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples: want an error")
	}
	if v, err := quantileAt(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		// root: 0-100 ms, charged to experiments
		{ID: 1, Name: "pass", Layer: "experiments", Start: 0, End: ms(100)},
		// solve 10-40 with a nested 20-30 encode charged elsewhere
		{ID: 2, Parent: 1, Name: "solve", Layer: "mdp", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 2, Name: "encode", Layer: "experiments", Start: ms(20), End: ms(30)},
		// two concurrent children 50-70 and 60-80: the root loses 30 ms once
		{ID: 4, Parent: 1, Name: "eval a", Layer: "env", Start: ms(50), End: ms(70)},
		{ID: 5, Parent: 1, Name: "eval b", Layer: "env", Start: ms(60), End: ms(80)},
		// an unclosed span is ignored
		{ID: 6, Parent: 1, Name: "open", Layer: "phy", Start: ms(90), End: -1},
	}
	by, total := selfTimes(spans)
	want := map[string]time.Duration{
		"experiments": ms(100-30-30) + ms(10), // root self + encode
		"mdp":         ms(20),
		"env":         ms(40),
	}
	for l, d := range want {
		if by[l] != d {
			t.Errorf("self time of %s = %v, want %v", l, by[l], d)
		}
	}
	if by["phy"] != 0 {
		t.Errorf("unclosed span charged %v", by["phy"])
	}
	if total != ms(100) {
		t.Errorf("total = %v, want 100ms", total)
	}
	// Sequential spans account exactly for the root's duration.
	seq := spans[:4]
	by, total = selfTimes(seq)
	var sum time.Duration
	for _, d := range by {
		sum += d
	}
	if sum != total {
		t.Errorf("self times of nested sequential spans sum to %v, root is %v", sum, total)
	}
}

func TestBucketQuantile(t *testing.T) {
	// 100 samples in (512, 1024] and 100 in (1024, 2048]: the median sits
	// at the top of the first bucket, the 75th percentile half-way up the
	// second.
	bs := [][2]float64{{1024, 100}, {2048, 100}}
	if got := bucketQuantile(bs, 0.5); got != 1024 {
		t.Errorf("p50 = %v, want 1024", got)
	}
	if got := bucketQuantile(bs, 0.75); got != 1536 {
		t.Errorf("p75 = %v, want 1536", got)
	}
	d, err := bucketDiff(map[string]int64{"1024": 5}, map[string]int64{"1024": 105, "2048": 100})
	if err != nil || len(d) != 2 || d[0] != [2]float64{1024, 100} {
		t.Errorf("bucketDiff = %v, %v", d, err)
	}
}

func TestBusyWallRemovesStealPerCPU(t *testing.T) {
	p := &passResult{wall: time.Second, steal: time.Duration(runtime.NumCPU()) * 100 * time.Millisecond}
	if got := p.busyWall(); got != 900*time.Millisecond {
		t.Errorf("busyWall = %v, want 900ms", got)
	}
}
