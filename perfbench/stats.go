package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure read off fewer samples is one or two outliers, not a
// percentile.
const minBeyond = 10

// minOps is the fewest operations a closed-loop run measures, whatever
// its window, so that the p90 is supported.
const minOps = minBeyond * 10

// percentileOK reports whether n samples support the p-th percentile
// (0 < p < 1) under the minBeyond rule.
func percentileOK(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place) and whether the sample supports it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], percentileOK(len(xs), p)
}

// median returns the middle value of xs (averaging the two middle ones
// for an even count); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// tally counts operations attempted and failed. A failure is anything
// the user would not accept as an answer: a non-2xx response (429s
// included), a transport error or timeout, or a result that fails the
// output check. An operation counts once however many ways it failed.
type tally struct {
	attempted int
	failed    map[int]string // op index -> first failure reason
}

func newTally() *tally { return &tally{failed: map[int]string{}} }

func (t *tally) attempt() { t.attempted++ }

func (t *tally) fail(op int, reason string) {
	if _, dup := t.failed[op]; !dup {
		t.failed[op] = reason
	}
}

func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(len(t.failed)) / float64(t.attempted)
}
