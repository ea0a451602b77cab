package main

import (
	"math"
	"sort"
	"time"
)

// sample collects one operation type's latencies in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between closest ranks; NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
}

func (s sample) median() float64 { return s.quantile(0.5) }

// beyond returns how many samples lie above the q-quantile; a percentile
// is reported only with at least ten beyond it.
func (s sample) beyond(q float64) int { return int(float64(len(s)) * (1 - q)) }

// medianSeconds returns the median of a few repeated measurements in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make(sample, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s.median()
}

// spread is (max-min)/median of a set of repeated counter readings; 0 when
// the counter repeats exactly.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sample(vs)
	lo, hi, med := s.quantile(0), s.quantile(1), s.median()
	if med == 0 {
		return hi - lo
	}
	return (hi - lo) / med
}
