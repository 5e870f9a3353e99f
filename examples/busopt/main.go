// busopt: optimize a realistic 16-drop system bus with asymmetric
// terminals — different arrival times, downstream requirements and roles
// — the full multisource scenario the ARD measure was designed for.
//
//	go run ./examples/busopt
package main

import (
	"fmt"
	"io"
	"log"
	"math"

	"msrnet"
	"msrnet/internal/atomicfile"
)

func main() {
	tech := msrnet.DefaultTech()
	b := msrnet.NewBuilder(tech)

	// A system bus on a 12×8 mm die. Three bus masters launch late
	// (deep logic in front of their drivers), a DSP cluster reads and
	// writes, and peripheral endpoints only listen but feed timing-
	// critical output logic (large Q).
	type drop struct {
		name     string
		x, y     float64
		src, snk bool
		aat, q   float64
	}
	drops := []drop{
		{"cpu0", 800, 700, true, true, 0.9, 0.2},
		{"cpu1", 1500, 700, true, true, 0.9, 0.2},
		{"dma", 11000, 900, true, true, 0.4, 0.2},
		{"dsp0", 6000, 4200, true, true, 0.6, 0.4},
		{"dsp1", 6900, 4600, true, true, 0.6, 0.4},
		{"l2", 3300, 7300, true, true, 0.3, 0.3},
		{"rom", 10800, 7500, false, true, 0, 0.6},
		{"uart", 11800, 4000, false, true, 0, 1.1},
		{"spi", 11600, 6400, false, true, 0, 1.0},
		{"gpio0", 400, 7600, false, true, 0, 0.9},
		{"gpio1", 900, 7900, false, true, 0, 0.9},
		{"timer", 5200, 7800, false, true, 0, 0.8},
		{"wdt", 5600, 400, false, true, 0, 0.7},
		{"pcie", 11900, 1900, true, true, 0.5, 0.5},
		{"usb", 9500, 300, true, true, 0.5, 0.5},
		{"sdio", 2600, 300, false, true, 0, 0.8},
	}
	for _, d := range drops {
		t := msrnet.DefaultTerminal(d.name)
		t.IsSource, t.IsSink = d.src, d.snk
		t.AAT = d.aat
		t.Q += d.q // extra downstream logic beyond the output buffer
		b.AddCustomTerminal(d.name, d.x, d.y, t)
	}

	net, err := b.AutoRoute()
	if err != nil {
		log.Fatal(err)
	}
	base, err := net.ARD(msrnet.Assignment{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16-drop bus: %.1f mm wire, %d insertion points\n",
		net.WireLength()/1000, net.InsertionPoints())
	fmt.Printf("unoptimized ARD %.4f ns, critical %s → %s\n",
		base.ARD, base.CritSrc, base.CritSink)

	suite, err := net.OptimizeRepeaters()
	if err != nil {
		log.Fatal(err)
	}
	best, err := suite.MinARD()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suite spans cost %g..%g, ARD %.4f..%.4f ns\n",
		suite[0].Cost, suite[len(suite)-1].Cost,
		best.ARD, suite[0].ARD)

	// Close timing at a 4.5 ns cycle budget.
	const spec = 4.5
	sol, ok := suite.MinCost(spec)
	if !ok {
		log.Fatalf("cannot close timing at %.2f ns; best is %.4f", spec, best.ARD)
	}
	fmt.Printf("closing timing at %.2f ns: %d repeaters, cost %.0f, achieved ARD %.4f ns\n",
		spec, sol.Repeaters(), sol.Cost, sol.ARD)

	// Validate the optimized net against the transient simulator: the
	// simulated 50%% delays must not exceed the Elmore numbers the
	// optimizer worked with.
	asg := sol.Assignment()
	sim, err := net.Simulate("cpu0", asg)
	if err != nil {
		log.Fatal(err)
	}
	worstRatio := 0.0
	for _, dst := range net.Terminals() {
		if dst == "cpu0" {
			continue
		}
		elm, err := net.PathDelay("cpu0", dst, asg)
		if err != nil {
			log.Fatal(err)
		}
		if r := sim[dst] / elm; !math.IsNaN(r) && r > worstRatio {
			worstRatio = r
		}
	}
	fmt.Printf("simulation check: worst sim/Elmore ratio from cpu0 = %.3f (≤ 1 expected)\n", worstRatio)

	// Render the solution.
	err = atomicfile.Write("busopt.svg", func(w io.Writer) error {
		return net.RenderSVG(w, asg, "16-drop bus, timing-closed")
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote busopt.svg")
}
