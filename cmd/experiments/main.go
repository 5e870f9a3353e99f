// Command experiments regenerates the evaluation section of Lillis &
// Cheng (TCAD'99): Tables I–IV, Fig. 11 and the asymmetric-roles study.
//
// Usage:
//
//	experiments -all                  # everything (Table II/IV use -nets nets per size)
//	experiments -table 2 -nets 10    # Table II exactly as in the paper
//	experiments -fig 11 -svgdir out/ # Fig. 11 panels, with SVG renderings
//	experiments -all -listen :9090   # live /metrics + /debug/pprof while it runs
//	experiments -all -trace-events t.json  # Perfetto-loadable study timeline
//	experiments -all -solveprof p.json     # merged candidate-lifecycle waste profile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"msrnet/internal/ard"
	"msrnet/internal/atomicfile"
	"msrnet/internal/buslib"
	"msrnet/internal/cliflags"
	"msrnet/internal/experiments"
	"msrnet/internal/obs/trace"
	"msrnet/internal/rctree"
	"msrnet/internal/solveprof"
	"msrnet/internal/svgplot"
)

var (
	table    = flag.Int("table", 0, "regenerate table 1, 2, 3 or 4")
	fig      = flag.Int("fig", 0, "regenerate figure (11)")
	asym     = flag.Bool("asym", false, "run the asymmetric source/sink study (§VII)")
	all      = flag.Bool("all", false, "regenerate everything")
	nets     = flag.Int("nets", 10, "random nets per size for Tables II/IV")
	seed     = flag.Int64("seed", 1, "base seed")
	parallel = flag.Int("parallel", 1, "worker goroutines for Tables II/IV")
	spacing  = flag.Bool("spacing", false, "run the insertion-spacing study (footnote 15)")
	combined = flag.Bool("combined", false, "run the joint sizing+repeater study")
	svgdir   = flag.String("svgdir", "", "directory for Fig. 11 SVG output")
	csvdir   = flag.String("csvdir", "", "directory for CSV dumps of the tables")
	profOut  = flag.String("solveprof", "", "write the session's merged msrnet-solveprof/v1 candidate-lifecycle profile to this file")
	obsFlags = cliflags.Register(flag.CommandLine, cliflags.Caps{TraceEvents: true, Listen: true})
)

func main() {
	flag.Parse()
	if !*all && (*table < 1 || *table > 4) && *fig != 11 && !*spacing && !*combined && !*asym {
		flag.Usage()
		os.Exit(2)
	}
	if *profOut != "" {
		experiments.EnableProfiling()
	}
	run, err := obsFlags.Start()
	if err != nil {
		cliflags.Fatal("experiments", err)
	}
	run.Finish("experiments", studies(run.Tracer))
}

// studies runs the selected studies and writes their tables, figures
// and profile.
func studies(tcr *trace.Tracer) error {
	tech := buslib.Default()
	if *all || *table == 1 {
		fmt.Print(experiments.FormatTable1(tech))
		fmt.Println()
	}
	var t2rows []experiments.Table2Row
	if *all || *table == 2 || *table == 4 {
		study := tcr.Begin("experiments/table2", "study")
		for _, pins := range []int{10, 20} {
			row, _, err := experiments.Table2Parallel(pins, *nets, *seed, tech, *parallel)
			if err != nil {
				return err
			}
			t2rows = append(t2rows, row)
		}
		study.End()
	}
	if *all || *table == 2 {
		fmt.Print(experiments.FormatTable2(t2rows))
		fmt.Println()
		if *csvdir != "" {
			if err := writeCSV(*csvdir, "table2.csv", func(w io.Writer) error {
				return experiments.WriteTable2CSV(w, t2rows)
			}); err != nil {
				return err
			}
		}
	}
	if *all || *table == 3 {
		study := tcr.Begin("experiments/table3", "study")
		rows, err := experiments.Table3(tech)
		if err != nil {
			return err
		}
		study.End()
		fmt.Print(experiments.FormatTable3(rows))
		fmt.Println()
		if *csvdir != "" {
			if err := writeCSV(*csvdir, "table3.csv", func(w io.Writer) error {
				return experiments.WriteTable3CSV(w, rows)
			}); err != nil {
				return err
			}
		}
	}
	if *all || *table == 4 {
		fmt.Print(experiments.FormatTable4(t2rows))
		fmt.Println()
	}
	if *all || *fig == 11 {
		study := tcr.Begin("experiments/fig11", "study")
		f, err := experiments.Fig11(8, tech, []int{2, 5})
		if err != nil {
			return err
		}
		study.End()
		fmt.Print(experiments.FormatFig11(f))
		fmt.Println()
		if *svgdir != "" {
			if err := os.MkdirAll(*svgdir, 0o755); err != nil {
				return err
			}
			rt := f.Tree.RootAt(f.Tree.Terminals()[0])
			for i, s := range f.Solutions {
				path := filepath.Join(*svgdir, fmt.Sprintf("fig11-%d-%dreps.svg", i, s.Repeaters))
				net := rctree.NewNet(rt, tech, s.Assign)
				r := ard.Compute(net, ard.Options{})
				err := atomicfile.Write(path, func(w io.Writer) error {
					return svgplot.Render(w, f.Tree, s.Assign, svgplot.Annotation{
						Title:    s.Label,
						Subtitle: fmt.Sprintf("RC-diameter %.4f ns, critical %s → %s", s.ARD, s.CritSrc, s.CritSink),
						CritSrc:  r.CritSrc, CritSink: r.CritSink,
					}, svgplot.Style{ShowLabels: true})
				})
				if err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
	}
	if *all || *spacing {
		study := tcr.Begin("experiments/spacing", "study")
		rows, err := experiments.SpacingStudy(10, *nets, *seed, tech, []float64{800, 450, 300})
		if err != nil {
			return err
		}
		study.End()
		fmt.Print(experiments.FormatSpacing(rows))
		fmt.Println()
		if *csvdir != "" {
			if err := writeCSV(*csvdir, "spacing.csv", func(w io.Writer) error {
				return experiments.WriteSpacingCSV(w, rows)
			}); err != nil {
				return err
			}
		}
	}
	if *all || *combined {
		study := tcr.Begin("experiments/combined", "study")
		var rows []experiments.CombinedRow
		for _, pins := range []int{10, 20} {
			row, err := experiments.Combined(pins, *nets, *seed, tech)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		study.End()
		fmt.Print(experiments.FormatCombined(rows))
		fmt.Println()
	}
	if *all || *asym {
		study := tcr.Begin("experiments/asym", "study")
		rows, err := experiments.Asymmetric(10, *nets, *seed, tech, []float64{0.2, 0.5, 1.0})
		if err != nil {
			return err
		}
		study.End()
		fmt.Print(experiments.FormatAsym(rows))
		fmt.Println()
	}
	if *profOut != "" {
		p := solveprof.FromProfile(experiments.CollectProfile(), "experiments", studyLabel())
		if p == nil {
			return fmt.Errorf("no solves were profiled")
		}
		if err := p.WriteFile(*profOut); err != nil {
			return err
		}
		fmt.Printf("solveprof: %d runs merged, %d born, %d died, waste ratio %d‰ -> %s\n",
			p.Runs, p.Totals.Born, p.Totals.Deaths, p.Waste.SegOpsPerMille, *profOut)
	}
	return nil
}

// studyLabel names the profiled session after the flags that selected
// the studies, so diffs between sessions are self-describing.
func studyLabel() string {
	var parts []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "table", "fig", "asym", "all", "spacing", "combined", "nets", "seed":
			parts = append(parts, fmt.Sprintf("%s=%s", f.Name, f.Value))
		}
	})
	return strings.Join(parts, ",")
}

func writeCSV(dir, name string, fn func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := atomicfile.Write(path, fn); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
