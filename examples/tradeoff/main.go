// tradeoff: sweep the full cost/performance suite produced by the
// optimizer, print it as a curve, and render SVG snapshots of selected
// points — how a designer would explore the buffering budget for a wide
// bus before committing area.
//
//	go run ./examples/tradeoff
package main

import (
	"fmt"
	"io"
	"log"
	"strings"

	"msrnet"
	"msrnet/internal/atomicfile"
)

func main() {
	tech := msrnet.DefaultTech()

	// A 12-drop bus shaped like a long backbone with stubs — the
	// topology where repeaters pay off most.
	b := msrnet.NewBuilder(tech)
	names := []string{"m0", "m1", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "m2", "s8"}
	coords := [][2]float64{
		{200, 5000}, {11800, 5000}, // masters at the ends
		{1500, 4500}, {2800, 5600}, {4100, 4400}, {5400, 5700},
		{6700, 4300}, {8000, 5800}, {9300, 4500}, {10600, 5500},
		{6000, 9500}, // a master on a stub
		{6000, 500},  // a sink on the opposite stub
	}
	for i, name := range names {
		roles := msrnet.Roles{Source: strings.HasPrefix(name, "m"), Sink: true}
		b.AddTerminal(name, coords[i][0], coords[i][1], roles)
	}
	net, err := b.AutoRoute()
	if err != nil {
		log.Fatal(err)
	}
	suite, err := net.OptimizeRepeaters()
	if err != nil {
		log.Fatal(err)
	}
	base := suite[0].ARD

	// ASCII tradeoff curve.
	fmt.Println("cost  ARD(ns)  improvement")
	for _, s := range suite {
		bar := strings.Repeat("#", int(60*(base-s.ARD)/base)+1)
		fmt.Printf("%5.1f  %7.4f  %s\n", s.Cost, s.ARD, bar)
	}
	fmt.Printf("\nknee analysis: marginal ns per unit cost\n")
	for i := 1; i < len(suite); i++ {
		dA := suite[i-1].ARD - suite[i].ARD
		dC := suite[i].Cost - suite[i-1].Cost
		fmt.Printf("  %5.1f -> %5.1f: %.4f ns per cost unit\n",
			suite[i-1].Cost, suite[i].Cost, dA/dC)
	}

	// SVG snapshots: cheapest, knee (best marginal), fastest.
	knee := suite[0]
	bestRate := 0.0
	for i := 1; i < len(suite); i++ {
		rate := (suite[i-1].ARD - suite[i].ARD) / (suite[i].Cost - suite[i-1].Cost)
		if rate > bestRate {
			bestRate = rate
			knee = suite[i]
		}
	}
	fastest, err := suite.MinARD()
	if err != nil {
		log.Fatal(err)
	}
	for _, pick := range []struct {
		tag string
		sol msrnet.RootSolution
	}{
		{"cheapest", suite[0]},
		{"knee", knee},
		{"fastest", fastest},
	} {
		path := fmt.Sprintf("tradeoff-%s.svg", pick.tag)
		title := fmt.Sprintf("%s: cost %.0f, ARD %.4f ns", pick.tag, pick.sol.Cost, pick.sol.ARD)
		err := atomicfile.Write(path, func(w io.Writer) error {
			return net.RenderSVG(w, pick.sol.Assignment(), title)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}
