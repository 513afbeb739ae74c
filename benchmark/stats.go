package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs into four groups, computed
// exactly as Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method, so spreads read the same here as in any external check.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	s := sortedCopy(xs)
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], nil
}

// spread is the run-to-run steadiness of a metric: the distance between its
// first and third quartile as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return 0, fmt.Errorf("spread of a metric with median 0 is undefined")
	}
	return math.Abs(q3-q1) / math.Abs(med), nil
}

// steadyMargin is the share of a metric's regression bound its run-to-run
// spread may use: a spread at a third of the bound leaves room for a real
// regression to show above the noise.
const steadyMargin = 3

// steady reports whether a metric's runs are steady enough for its bound:
// their spread must stay below bound/steadyMargin.
func steady(xs []float64, bound float64) (bool, float64, error) {
	sp, err := spread(xs)
	if err != nil {
		return false, 0, err
	}
	return sp < bound/steadyMargin, sp, nil
}

// Tail is the highest percentile a sample supports: the one with at least
// tailBeyond samples above it.
type Tail struct {
	Label string  // "p99"
	Value float64 // the percentile's value
	N     int     // sample count
}

// tailBeyond is how many samples must lie beyond a reported tail percentile
// for it to be more than a single outlier.
const tailBeyond = 10

// tailLadder is the percentiles tried, highest first.
var tailLadder = []struct {
	label string
	p     float64
}{
	{"p99.9", 0.999},
	{"p99", 0.99},
	{"p90", 0.90},
	{"p50", 0.50},
}

// rank is the 1-based nearest rank of the p-quantile of n samples. The
// epsilon keeps p*n from rounding up past an exact integer rank.
func rank(n int, p float64) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

// percentile is the nearest-rank p-quantile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	k := rank(len(sorted), p)
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// beyond is the number of samples strictly above the nearest rank of p.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// tail returns the highest percentile of xs with at least tailBeyond samples
// beyond it, or an error when not even the median has that many.
func tail(xs []float64) (Tail, error) {
	s := sortedCopy(xs)
	for _, t := range tailLadder {
		if beyond(len(s), t.p) >= tailBeyond {
			return Tail{Label: t.label, Value: percentile(s, t.p), N: len(s)}, nil
		}
	}
	return Tail{}, fmt.Errorf("%d samples support no percentile with %d beyond it", len(s), tailBeyond)
}

// quantileAt returns the named percentile of xs, failing when the sample has
// fewer than tailBeyond values beyond it — a metric named p99 is only
// reported when the sample supports a p99.
func quantileAt(xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < tailBeyond {
		return 0, fmt.Errorf("%d samples leave %d beyond the %g quantile, need %d", len(xs), b, p, tailBeyond)
	}
	return percentile(sortedCopy(xs), p), nil
}
