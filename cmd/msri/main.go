// Command msri runs the optimal multisource repeater-insertion dynamic
// program of §IV of Lillis & Cheng (TCAD'99) on a net file, printing the
// full cost/performance tradeoff suite and, given a timing spec, the
// min-cost solution meeting it (Problem 2.1).
//
// Usage:
//
//	msri -net net10.json                       # full tradeoff suite
//	msri -net net10.json -spec 1.8             # min cost with ARD ≤ 1.8 ns
//	msri -net net10.json -mode sizing          # driver sizing instead
//	msri -net net10.json -mode both            # sizing + repeaters jointly
//	msri -net net10.json -svg out.svg          # render the chosen solution
//	msri -net net10.json -assign out.json      # dump the chosen assignment
//	msri -net net10.json -metrics m.json       # JSON metrics snapshot (counters + gauges)
//	msri -net net10.json -trace                # metrics report on stderr
//	msri -net net10.json -trace-events t.json  # Perfetto-loadable per-node DP timeline
//	msri -net net10.json -solveprof p.json     # candidate-lifecycle waste profile (see msrnetctl prof)
//	msri -net net10.json -listen :9090         # live /metrics, /debug/vars, /debug/pprof
//	msri -net net10.json -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"msrnet/internal/ard"
	"msrnet/internal/atomicfile"
	"msrnet/internal/cliflags"
	"msrnet/internal/core"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/obs/trace"
	"msrnet/internal/rctree"
	"msrnet/internal/report"
	"msrnet/internal/solveprof"
	"msrnet/internal/spef"
	"msrnet/internal/svgplot"
	"msrnet/internal/topo"

	"msrnet/internal/buslib"

	"encoding/json"
)

var (
	netPath  = flag.String("net", "", "net file (required)")
	mode     = flag.String("mode", "repeaters", "repeaters | sizing | both")
	spec     = flag.Float64("spec", 0, "timing spec in ns (0 = report full suite, choose min-ARD)")
	svgOut   = flag.String("svg", "", "write an SVG of the chosen solution")
	asgOut   = flag.String("assign", "", "write the chosen assignment as JSON")
	widths   = flag.String("widths", "", "comma-separated wire width options (enables wire sizing)")
	stats    = flag.Bool("stats", false, "print dynamic-programming statistics")
	profOut  = flag.String("solveprof", "", "write a msrnet-solveprof/v1 candidate-lifecycle profile to this file (analyze with msrnetctl prof)")
	rep      = flag.Bool("report", false, "print a before/after summary and placement report for the chosen solution")
	obsFlags = cliflags.Register(flag.CommandLine, cliflags.Caps{TraceEvents: true, Listen: true})
)

func main() {
	flag.Parse()
	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "msri: -net is required")
		os.Exit(2)
	}
	run, err := obsFlags.Start()
	if err != nil {
		cliflags.Fatal("msri", err)
	}
	run.Finish("msri", optimize(run.Reg, run.Tracer))
}

// optimize loads the net, runs the DP and writes the requested outputs.
func optimize(reg *obs.Registry, tcr *trace.Tracer) error {
	tr, tech, err := loadNet(*netPath)
	if err != nil {
		return err
	}
	opt := core.Options{Obs: reg, Trace: tcr}
	switch *mode {
	case "repeaters":
		opt.Repeaters = true
	case "sizing":
		opt.SizeDrivers = true
	case "both":
		opt.Repeaters = true
		opt.SizeDrivers = true
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	opt.Profile = *profOut != ""
	if *widths != "" {
		for _, tok := range strings.Split(*widths, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return fmt.Errorf("bad width %q: %w", tok, err)
			}
			opt.WireWidths = append(opt.WireWidths, w)
		}
	}

	rt := tr.RootAt(tr.Terminals()[0])
	base := rctree.NewNet(rt, tech, rctree.Assignment{})
	baseARD := ard.Compute(base, ard.Options{Obs: reg, Trace: tcr}).ARD
	fmt.Printf("net: %d terminals, %d insertion points, %.0f µm wire, unoptimized ARD %.4f ns\n",
		len(tr.Terminals()), len(tr.Insertions()), tr.TotalWireLength(), baseARD)

	res, err := core.Optimize(rt, tech, opt)
	if err != nil {
		return err
	}
	fmt.Println("cost/ARD tradeoff suite:")
	if err := report.Suite(os.Stdout, res.Suite); err != nil {
		return err
	}
	if *stats {
		fmt.Printf("stats: %d solutions created, max set %d, max PWL segments %d, %d prunes, %d dropped\n",
			res.Stats.SolutionsCreated, res.Stats.MaxSetSize, res.Stats.MaxSegs, res.Stats.PruneCalls, res.Stats.Dropped)
	}
	if *profOut != "" {
		p := solveprof.FromResult(res, "msri", *netPath)
		if err := p.WriteFile(*profOut); err != nil {
			return err
		}
		fmt.Printf("solveprof: %d born, %d died, waste ratio %d‰ -> %s\n",
			p.Totals.Born, p.Totals.Deaths, p.Waste.SegOpsPerMille, *profOut)
	}

	best, err := res.Suite.MinARD()
	if err != nil {
		return err
	}
	var chosen core.RootSolution
	if *spec > 0 {
		sol, ok := res.Suite.MinCost(*spec)
		if !ok {
			return fmt.Errorf("no solution meets ARD ≤ %g ns (best achievable %.4f)",
				*spec, best.ARD)
		}
		chosen = sol
		fmt.Printf("min-cost solution meeting ARD ≤ %g: cost %.1f, ARD %.4f ns, %d repeaters\n",
			*spec, sol.Cost, sol.ARD, sol.Repeaters())
	} else {
		chosen = best
		fmt.Printf("min-ARD solution: cost %.1f, ARD %.4f ns, %d repeaters\n",
			chosen.Cost, chosen.ARD, chosen.Repeaters())
	}

	if *rep {
		if err := report.Summary(os.Stdout, rt, tech, chosen); err != nil {
			return err
		}
	}
	asg := chosen.Assignment()
	if *asgOut != "" {
		err := atomicfile.Write(*asgOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(netio.EncodeAssignment(chosen.Cost, chosen.ARD, asg))
		})
		if err != nil {
			return err
		}
	}
	if *svgOut != "" {
		net := rctree.NewNet(rt, tech, asg)
		r := ard.Compute(net, ard.Options{})
		err := atomicfile.Write(*svgOut, func(w io.Writer) error {
			return svgplot.Render(w, tr, asg, svgplot.Annotation{
				Title:    fmt.Sprintf("%s solution", *mode),
				Subtitle: fmt.Sprintf("cost %.1f, ARD %.4f ns", chosen.Cost, chosen.ARD),
				CritSrc:  r.CritSrc, CritSink: r.CritSink,
			}, svgplot.Style{ShowLabels: true})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// loadNet reads a net file: JSON from this repo's netgen, or an IEEE 1481
// SPEF subset when the path ends in .spef (terminal roles default to
// source+sink with the paper's symmetric electrical model).
func loadNet(path string) (*topo.Tree, buslib.Tech, error) {
	if strings.HasSuffix(path, ".spef") {
		fh, err := os.Open(path)
		if err != nil {
			return nil, buslib.Tech{}, err
		}
		defer fh.Close()
		tech := buslib.Default()
		tr, err := spef.Read(fh, tech, buslib.DefaultTerminal)
		return tr, tech, err
	}
	return netio.Load(path)
}
