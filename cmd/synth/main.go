// Command synth performs multisource timing-driven topology synthesis —
// the §VII extension of Lillis & Cheng (TCAD'99): candidate topologies
// (P-Tree interval DP and iterated 1-Steiner) are each optimized with
// repeater insertion, and the one whose optimized ARD is best wins.
//
// Usage:
//
//	synth -net terminals.json           # synthesize for a net file's terminals
//	synth -pins 9 -seed 21              # synthesize for random terminals
//	synth -pins 9 -seed 21 -out best.json -svg best.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"

	"msrnet/internal/ard"
	"msrnet/internal/atomicfile"
	"msrnet/internal/buslib"
	"msrnet/internal/cliflags"
	"msrnet/internal/geom"
	"msrnet/internal/netio"
	"msrnet/internal/ptree"
	"msrnet/internal/rctree"
	"msrnet/internal/rsmt"
	"msrnet/internal/svgplot"
)

func main() {
	var (
		netPath = flag.String("net", "", "net file supplying terminals and technology")
		pins    = flag.Int("pins", 9, "random terminals when no -net is given")
		seed    = flag.Int64("seed", 1, "random seed for -pins mode")
		grid    = flag.Float64("grid", 10000, "grid side (µm) for -pins mode")
		spacing = flag.Float64("spacing", 800, "insertion-point spacing in µm")
		out     = flag.String("out", "", "write the synthesized net as JSON")
		svgOut  = flag.String("svg", "", "write an SVG of the best solution")
	)
	obsFlags := cliflags.Register(flag.CommandLine, cliflags.Caps{})
	flag.Parse()

	run, err := obsFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := run.Close(); err != nil {
			fatal(err)
		}
	}()

	var (
		pts   []geom.Point
		terms []buslib.Terminal
		tech  buslib.Tech
	)
	if *netPath != "" {
		tr, fileTech, err := netio.Load(*netPath)
		if err != nil {
			fatal(err)
		}
		tech = fileTech
		for _, id := range tr.Terminals() {
			pts = append(pts, tr.Node(id).Pt)
			terms = append(terms, tr.Node(id).Term)
		}
	} else {
		tech = buslib.Default()
		r := rand.New(rand.NewSource(*seed))
		for i := 0; i < *pins; i++ {
			pts = append(pts, geom.Pt(r.Float64()**grid, r.Float64()**grid))
			terms = append(terms, buslib.DefaultTerminal(fmt.Sprintf("t%d", i)))
		}
	}

	// Baseline for comparison: fixed 1-Steiner route.
	baseLen := rsmt.Steiner(pts).Length()

	res, err := ptree.TimingDriven(pts, terms, tech, *spacing, ptree.Options{})
	if err != nil {
		fatal(err)
	}
	best, err := res.Suite.MinARD()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("synthesized topology: %.0f µm wire (1-Steiner baseline %.0f µm)\n",
		res.WirelengthUm, baseLen)
	fmt.Printf("optimized ARD %.4f ns at cost %.0f (%d repeaters); suite has %d points\n",
		best.ARD, best.Cost, best.Repeaters(), len(res.Suite))

	if *out != "" {
		if err := netio.Save(*out, "synthesized", res.Tree, tech); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *out)
	}
	if *svgOut != "" {
		asg := best.Assignment()
		rt := res.Tree.RootAt(res.Tree.Terminals()[0])
		net := rctree.NewNet(rt, tech, asg)
		r := ard.Compute(net, ard.Options{})
		err := atomicfile.Write(*svgOut, func(w io.Writer) error {
			return svgplot.Render(w, res.Tree, asg, svgplot.Annotation{
				Title:    "timing-driven synthesis",
				Subtitle: fmt.Sprintf("ARD %.4f ns, cost %.0f", best.ARD, best.Cost),
				CritSrc:  r.CritSrc, CritSink: r.CritSink,
			}, svgplot.Style{ShowLabels: true})
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *svgOut)
	}
}

func fatal(err error) { cliflags.Fatal("synth", err) }
