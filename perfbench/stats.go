package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks (the "R-7" rule that numpy and
// spreadsheets use). xs need not be sorted and is not modified; an empty
// sample has no quantile and yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sliced returns the q-quantile (0 ≤ q < 1) of samples kept apart by
// consecutive slices of a timed phase. It joins the slices into the most
// groups of equal slice count (each slice its own group, or two, five or
// ten slices a group) that all hold ten samples beyond the quantile, and
// returns the median of the groups' quantiles. Load from outside the
// benchmark that slows part of a run then moves only the groups it falls
// in. With too few samples for two groups it is the quantile of all.
func sliced(xs [][]float64, q float64) float64 {
	need := int(math.Round(10 / (1 - q)))
	for size := 1; size < len(xs); size++ {
		if len(xs)%size != 0 {
			continue
		}
		var qs []float64
		for i := 0; i < len(xs); i += size {
			var g []float64
			for _, s := range xs[i : i+size] {
				g = append(g, s...)
			}
			if len(g) < need {
				qs = nil
				break
			}
			qs = append(qs, quantile(g, q))
		}
		if qs != nil {
			return median(qs)
		}
	}
	var all []float64
	for _, s := range xs {
		all = append(all, s...)
	}
	return quantile(all, q)
}

// ratio is a/b, 0 when b is 0: counters read before any event happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
