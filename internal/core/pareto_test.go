package core

import (
	"math/rand"
	"testing"
)

// TestParetoPointsMatchesKLPMinima cross-validates the suite's frontier
// rule against the definition of the 2-D minima set (the point
// dominance problem of Kung, Luccio and Preparata, the paper's
// reference [14]): a distinct (cost, ARD) pair is on the frontier iff no
// other distinct pair is ≤ in both coordinates.
func TestParetoPointsMatchesKLPMinima(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		pts := make([]CostARD, n)
		distinct := map[CostARD]bool{}
		for i := range pts {
			// Grid values to force ties and duplicates.
			pts[i] = CostARD{Cost: float64(r.Intn(12)) * 2, ARD: float64(r.Intn(20)) * 0.25}
			distinct[pts[i]] = true
		}
		wantSet := map[CostARD]bool{}
		for p := range distinct {
			minimal := true
			for q := range distinct {
				if q != p && q.Cost <= p.Cost && q.ARD <= p.ARD {
					minimal = false
					break
				}
			}
			if minimal {
				wantSet[p] = true
			}
		}
		got := ParetoPoints(pts)
		if len(got) != len(wantSet) {
			t.Fatalf("trial %d: frontier size %d, minima size %d\ngot %v",
				trial, len(got), len(wantSet), got)
		}
		for _, p := range got {
			if !wantSet[p] {
				t.Fatalf("trial %d: frontier point %v not in the minima", trial, p)
			}
		}
	}
}
