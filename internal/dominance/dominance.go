// Package dominance solves the minima (Pareto) problem for point sets:
// given points in d dimensions where smaller is better in every
// coordinate, find the subset not dominated by any other point. This is
// the classical maxima-of-vectors problem of Kung, Luccio and Preparata
// (JACM 1975), which the paper cites as the foundation of solution
// pruning in multidimensional dynamic programming (§IV-D).
//
// The package provides the O(n log n) sort-and-scan algorithm for two
// dimensions, the KLP divide-and-conquer for three, and a general
// divide-and-conquer for arbitrary dimension, together with a quadratic
// reference implementation used in tests. Package core's (cost, ARD)
// suite extraction is checked against Minima2D, and its functional
// (per-c_E) pruning generalizes the same idea to PWL-valued
// coordinates.
package dominance

import "sort"

// Point is a d-dimensional point; smaller is better in every coordinate.
type Point []float64

// dominates reports whether a ≤ b component-wise with a strict
// inequality somewhere (given tolerance eps in each coordinate).
func dominates(a, b Point, eps float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i]+eps {
			return false
		}
		if a[i] < b[i]-eps {
			strict = true
		}
	}
	return strict
}

// MinimaNaive returns the indices of the non-dominated points by
// quadratic pairwise comparison. Exact ties are resolved by keeping the
// earliest index. It is the reference oracle for the fast algorithms.
func MinimaNaive(pts []Point, eps float64) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if dominates(q, p, eps) {
				dominated = true
				break
			}
			// Exact duplicate: keep the earliest.
			if j < i && equal(q, p, eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

func equal(a, b Point, eps float64) bool {
	for i := range a {
		if a[i] > b[i]+eps || a[i] < b[i]-eps {
			return false
		}
	}
	return true
}

// Minima2D returns the indices of the non-dominated points of a
// two-dimensional set in O(n log n): sort by the first coordinate
// (breaking ties by the second, then by index) and sweep, keeping points
// that strictly improve the best second coordinate seen.
func Minima2D(pts []Point, eps float64) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa[0] != pb[0] {
			return pa[0] < pb[0]
		}
		if pa[1] != pb[1] {
			return pa[1] < pb[1]
		}
		return idx[a] < idx[b]
	})
	var out []int
	bestY := 0.0
	first := true
	lastX := 0.0
	for _, i := range idx {
		p := pts[i]
		if first {
			out = append(out, i)
			bestY = p[1]
			lastX = p[0]
			first = false
			continue
		}
		if p[0] <= lastX+eps && p[1] >= bestY-eps {
			// Same x (within eps) but no better y: dominated or duplicate.
			continue
		}
		if p[1] < bestY-eps {
			out = append(out, i)
			bestY = p[1]
			lastX = p[0]
		}
	}
	sort.Ints(out)
	return out
}

// Minima3D returns the indices of the non-dominated points of a
// three-dimensional set by the KLP divide-and-conquer: sort by the first
// coordinate, recursively solve each half, then discard from the
// high half every point dominated in (y, z) by the staircase of the low
// half.
func Minima3D(pts []Point, eps float64) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		for k := 0; k < 3; k++ {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		return idx[a] < idx[b]
	})
	surv := minima3Rec(pts, idx, eps)
	sort.Ints(surv)
	return surv
}

func minima3Rec(pts []Point, idx []int, eps float64) []int {
	if len(idx) <= 1 {
		return append([]int(nil), idx...)
	}
	if len(idx) <= 8 {
		return smallMinima(pts, idx, eps)
	}
	mid := len(idx) / 2
	low := minima3Rec(pts, idx[:mid], eps)
	high := minima3Rec(pts, idx[mid:], eps)
	// Points in `high` have x ≥ every x in `low` (by sort order), so a
	// high point survives only if no low point dominates it in (y, z).
	// Build the (y → min z) staircase of the low survivors.
	stair := make([][2]float64, 0, len(low))
	for _, i := range low {
		stair = append(stair, [2]float64{pts[i][1], pts[i][2]})
	}
	sort.Slice(stair, func(a, b int) bool { return stair[a][0] < stair[b][0] })
	// prefix-min of z over increasing y
	for i := 1; i < len(stair); i++ {
		if stair[i-1][1] < stair[i][1] {
			stair[i][1] = stair[i-1][1]
		}
	}
	out := low
	for _, i := range high {
		p := pts[i]
		// Find the largest y in the staircase with y ≤ p[1]+eps.
		k := sort.Search(len(stair), func(j int) bool { return stair[j][0] > p[1]+eps })
		dominatedByLow := false
		if k > 0 && stair[k-1][1] <= p[2]+eps {
			// Some low point has y ≤ p.y and z ≤ p.z; since its x ≤ p.x
			// too, check strictness: the KLP split guarantees x strictly
			// less OR equal; treat equality conservatively via direct
			// scan over low survivors only when values tie everywhere.
			dominatedByLow = true
			if stair[k-1][1] >= p[2]-eps {
				dominatedByLow = false
				for _, j := range low {
					if dominates(pts[j], p, eps) || equal(pts[j], p, eps) {
						dominatedByLow = true
						break
					}
				}
			}
		}
		if !dominatedByLow {
			out = append(out, i)
		}
	}
	return out
}

func smallMinima(pts []Point, idx []int, eps float64) []int {
	var out []int
	for ai, i := range idx {
		dominated := false
		for bi, j := range idx {
			if ai == bi {
				continue
			}
			if dominates(pts[j], pts[i], eps) {
				dominated = true
				break
			}
			if bi < ai && equal(pts[j], pts[i], eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// MinimaKD returns the indices of the non-dominated points in any
// dimension by divide-and-conquer on the first coordinate with naive
// cross-filtering — O(n log n) when the frontier is small, O(n²) worst
// case, always correct.
func MinimaKD(pts []Point, eps float64) []int {
	if len(pts) == 0 {
		return nil
	}
	switch len(pts[0]) {
	case 2:
		return Minima2D(pts, eps)
	case 3:
		return Minima3D(pts, eps)
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		for k := range pa {
			if pa[k] != pb[k] {
				return pa[k] < pb[k]
			}
		}
		return idx[a] < idx[b]
	})
	surv := kdRec(pts, idx, eps)
	sort.Ints(surv)
	return surv
}

func kdRec(pts []Point, idx []int, eps float64) []int {
	if len(idx) <= 16 {
		return smallMinima(pts, idx, eps)
	}
	mid := len(idx) / 2
	low := kdRec(pts, idx[:mid], eps)
	high := kdRec(pts, idx[mid:], eps)
	out := low
	for _, i := range high {
		dominated := false
		for _, j := range low {
			if dominates(pts[j], pts[i], eps) || equal(pts[j], pts[i], eps) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}
