package main

import (
	"math"
	"sort"
	"syscall"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty sample.
func (s sample) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// tailQ is the quantile every latency_tail_ms and *_tail_ms reports. It is
// fixed, so the metric means the same whatever the sample count: on a run
// of few calls it is the second-largest or the largest sample.
const tailQ = 0.90

// tail returns the nearest-rank tailQ-quantile.
func (s sample) tail() float64 { return s.quantile(tailQ) }

// beyondTail is how many samples lie above the tail's rank.
func (s sample) beyondTail() int {
	return len(s) - rank(tailQ, len(s))
}

// rank is the 1-based nearest rank of quantile q among n samples:
// ceil(q·n), with a small allowance for q·n's rounding error.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// quantile returns the nearest-rank q-quantile (q in [0,1]).
func (s sample) quantile(q float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	i := rank(q, len(c)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// summary is the detail-line view of one timing sample.
func (s sample) summary() map[string]any {
	return map[string]any{"n": len(s), "p50": s.median(), "tail": s.tail(),
		"tail_pct": 100 * tailQ, "beyond_tail": s.beyondTail()}
}

// maxRSSMB returns this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
