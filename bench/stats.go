package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by nearest rank; 0 for none.
// vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q * float64(len(vs)))
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// spread is (max-min)/median of the slice values: how far a timing's
// slices disagree within one run. vs is sorted in place.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return ratio(vs[len(vs)-1]-vs[0], median(vs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
