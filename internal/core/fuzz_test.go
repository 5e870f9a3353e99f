package core_test

import (
	"math"
	"math/rand"
	"testing"

	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/testnet"
	"msrnet/internal/topo"
)

// Option bits of FuzzOptimizeAgainstBruteForce's input.
const (
	fuzzRepeaters = 1 << iota
	fuzzSizeDrivers
	fuzzAllowInverting
	fuzzIncludeSelf
	fuzzNaivePruner
	fuzzWireWidths
	fuzzOptionMixes
)

// bruteForceBudget caps the assignments BruteForce enumerates per fuzz
// input, so every input runs in milliseconds.
const bruteForceBudget = 20000

// maxWidthCombos bounds the DP, not the oracle: under wire sizing its
// sets grow like len(widths)^edges, and without this bound input seed
// 40 with bits 0b100000 spends seconds in the DP where BruteForce takes
// milliseconds.
const maxWidthCombos = 1 << 7

// The width option sets and wire costs the width bit draws from.
var (
	fuzzWidthSets = [][]float64{{1, 2}, {1, 2, 3}}
	fuzzWireCosts = []float64{0, 1e-4, 1e-3}
)

// FuzzOptimizeAgainstBruteForce is the fuzzed form of Theorem 4.1: on a
// small random net (at most 6 insertion points) under any exact option
// mix, the DP suite must equal the exhaustive Pareto frontier. The input
// is a seed plus option bits for Repeaters, SizeDrivers, AllowInverting,
// IncludeSelf, the naive pruner and wire widths; the seed corpus holds
// one entry per mix, so plain `go test` checks every mix.
func FuzzOptimizeAgainstBruteForce(f *testing.F) {
	for bits := 0; bits < fuzzOptionMixes; bits++ {
		f.Add(int64(1000+bits), uint8(bits))
	}
	f.Fuzz(func(t *testing.T, seed int64, bits uint8) {
		opt := core.Options{
			Repeaters:      bits&fuzzRepeaters != 0,
			SizeDrivers:    bits&fuzzSizeDrivers != 0,
			AllowInverting: bits&fuzzAllowInverting != 0,
			IncludeSelf:    bits&fuzzIncludeSelf != 0,
		}
		if bits&fuzzNaivePruner != 0 {
			opt.Pruner = core.PruneNaive
		}
		// The first net at or after seed whose enumeration fits the
		// budget: deterministic, and never a skipped input.
		var rt *topo.Rooted
		var tech buslib.Tech
		for s := seed; rt == nil; s++ {
			r := rand.New(rand.NewSource(s))
			tr := smallNet(r, 6)
			tech = fuzzTech(r, opt)
			if bits&fuzzWireWidths != 0 {
				opt.WireWidths = fuzzWidthSets[r.Intn(len(fuzzWidthSets))]
				opt.WireCostPerUm = fuzzWireCosts[r.Intn(len(fuzzWireCosts))]
			}
			if enumerationSize(tr, tech, opt) <= bruteForceBudget && widthCombos(tr, opt) <= maxWidthCombos {
				rt = tr.RootAt(testnet.RootTerminal(tr))
			}
		}
		res, err := core.Optimize(rt, tech, opt)
		if err != nil {
			t.Fatalf("seed %d bits %06b: %v", seed, bits, err)
		}
		frontiersEqual(t, "fuzz", res.Suite, core.BruteForce(rt, tech, opt))
	})
}

// fuzzTech draws a technology for the option mix: one or two repeater
// types (the first inverting under AllowInverting) and two or three
// driver sizes under SizeDrivers.
func fuzzTech(r *rand.Rand, opt core.Options) buslib.Tech {
	nRep, nDrv := 0, 0
	if opt.Repeaters {
		nRep = 1 + r.Intn(2)
	}
	if opt.SizeDrivers {
		nDrv = 2 + r.Intn(2)
	}
	tech := testnet.RandTech(r, nRep, nDrv)
	if opt.AllowInverting && nRep > 0 {
		tech.Repeaters[0].Inverting = true
	}
	return tech
}

// enumerationSize counts the assignments BruteForce visits: every
// repeater choice (none, or an allowed type in each distinct
// orientation) at every insertion point, times every driver choice at
// every source under SizeDrivers, times the width combinations.
func enumerationSize(tr *topo.Tree, tech buslib.Tech, opt core.Options) float64 {
	choices := 1
	if opt.Repeaters {
		for _, rep := range tech.Repeaters {
			switch {
			case rep.Inverting && !opt.AllowInverting:
			case rep.Symmetric():
				choices++
			default:
				choices += 2
			}
		}
	}
	n := math.Pow(float64(choices), float64(len(tr.Insertions())))
	if opt.SizeDrivers {
		n *= math.Pow(float64(len(tech.Drivers)), float64(len(tr.Sources())))
	}
	return n * widthCombos(tr, opt)
}

// widthCombos counts BruteForce's width assignments: every width option
// on every edge of positive length.
func widthCombos(tr *topo.Tree, opt core.Options) float64 {
	if len(opt.WireWidths) == 0 {
		return 1
	}
	edges := 0
	for e := 0; e < tr.NumEdges(); e++ {
		if tr.Edge(e).Length > 0 {
			edges++
		}
	}
	return math.Pow(float64(len(opt.WireWidths)), float64(edges))
}
