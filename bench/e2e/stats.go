package main

import (
	"math"
	"sort"
)

// quantile reports the q-th quantile (0..1) of an ascending-sorted slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns an ascending copy, leaving the caller's order (which
// for block series is time order) intact.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// durs collects per-operation durations in nanoseconds.
type durs []float64
