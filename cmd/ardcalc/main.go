// Command ardcalc computes the augmented RC-diameter (ARD) of a net file
// using the linear-time algorithm of §III of Lillis & Cheng (TCAD'99),
// and optionally cross-checks it against the naive multiple-single-source
// method and dumps the full source×sink delay matrix.
//
// Usage:
//
//	ardcalc -net net10.json
//	ardcalc -net net10.json -matrix -check
//	ardcalc -net net10.json -metrics m.json -trace -cpuprofile cpu.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"msrnet/internal/ard"
	"msrnet/internal/cliflags"
	"msrnet/internal/netio"
	"msrnet/internal/obs"
	"msrnet/internal/rctree"
	"msrnet/internal/spef"
	"msrnet/internal/topo"

	"msrnet/internal/buslib"
	"strings"
)

var (
	netPath  = flag.String("net", "", "net file (required)")
	matrix   = flag.Bool("matrix", false, "print the full source×sink augmented delay matrix")
	check    = flag.Bool("check", false, "cross-check against the naive O(s·n) computation")
	self     = flag.Bool("self", false, "include u==v source/sink pairs")
	obsFlags = cliflags.Register(flag.CommandLine, cliflags.Caps{})
)

func main() {
	flag.Parse()
	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "ardcalc: -net is required")
		os.Exit(2)
	}
	run, err := obsFlags.Start()
	if err != nil {
		cliflags.Fatal("ardcalc", err)
	}
	run.Finish("ardcalc", analyze(run.Reg))
}

// analyze computes the net's ARD and prints the requested views.
func analyze(reg *obs.Registry) error {
	tr, tech, err := loadNet(*netPath)
	if err != nil {
		return err
	}
	rt := tr.RootAt(tr.Terminals()[0])
	net := rctree.NewNet(rt, tech, rctree.Assignment{})
	res := ard.Compute(net, ard.Options{IncludeSelf: *self, Obs: reg})
	name := func(id int) string {
		if id < 0 {
			return "-"
		}
		return tr.Node(id).Term.Name
	}
	fmt.Printf("ARD = %.6f ns\n", res.ARD)
	fmt.Printf("critical pair: %s -> %s\n", name(res.CritSrc), name(res.CritSink))

	if *check {
		naive, _, _ := net.NaiveARD(*self)
		diff := res.ARD - naive
		fmt.Printf("naive ARD = %.6f ns (difference %.3g)\n", naive, diff)
		if diff > 1e-9 || diff < -1e-9 {
			return errors.New("MISMATCH between linear and naive ARD")
		}
	}
	if *matrix {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprint(w, "src\\snk")
		sinks := tr.Sinks()
		for _, v := range sinks {
			fmt.Fprintf(w, "\t%s", name(v))
		}
		fmt.Fprintln(w)
		for _, s := range tr.Sources() {
			fmt.Fprint(w, name(s))
			dist := net.DelaysFrom(s)
			for _, v := range sinks {
				if v == s && !*self {
					fmt.Fprint(w, "\t-")
					continue
				}
				aug := tr.Node(s).Term.AAT + dist[v] + tr.Node(v).Term.Q
				fmt.Fprintf(w, "\t%.4f", aug)
			}
			fmt.Fprintln(w)
		}
		w.Flush()
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
