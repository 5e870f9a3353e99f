package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile's rank
// before the benchmark reports it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs and how many
// samples lie beyond its rank. Failed jobs enter xs as +Inf, so they
// count as missing every percentile.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// percentile reports the q-quantile of xs under name, printing its
// sample count, and refuses one with fewer than minBeyond samples
// beyond it.
func (r *run) percentile(name string, xs []float64, q float64) error {
	v, beyond := quantile(xs, q)
	if beyond < minBeyond {
		return fmt.Errorf("%s: p%g of %d samples has %d beyond it (need %d); lengthen the list", name, q*100, len(xs), beyond, minBeyond)
	}
	r.logf("  %-34s p%g over %d samples (%d beyond)", name, q*100, len(xs), beyond)
	r.set(name, "ms", v)
	return nil
}

// tailQuantile picks the higher of p90 and p75 that n samples support
// with minBeyond samples beyond it. The list sizes are fixed per
// workload, so the choice is too. p99 is not offered: on a 2-vCPU VM the
// p99 of a 1 ms serve-ard job tracked hypervisor steal (its spread over
// ten runs ranged 0.11 to 0.87) rather than the program.
func tailQuantile(n int) (float64, error) {
	for _, q := range []float64{0.90, 0.75} {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return q, nil
		}
	}
	return 0, fmt.Errorf("%d samples support no tail percentile", n)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perMille returns 1000·num/den, or 0 for an empty base.
func perMille(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 1000 * num / den
}
