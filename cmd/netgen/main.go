// Command netgen generates random multisource benchmark nets in the style
// of §VI of Lillis & Cheng (TCAD'99): random terminals on a square grid,
// Steiner-routed, with repeater insertion points at bounded spacing.
//
// Usage:
//
//	netgen -pins 10 -seed 1 -out net10.json
//	netgen -pins 20 -seed 3 -grid 10000 -spacing 800 -sources 0.5 -out asym.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"msrnet/internal/atomicfile"
	"msrnet/internal/buslib"
	"msrnet/internal/cliflags"
	"msrnet/internal/netgen"
	"msrnet/internal/netio"
	"msrnet/internal/spef"
)

var (
	pins     = flag.Int("pins", 10, "number of terminals")
	seed     = flag.Int64("seed", 1, "random seed")
	grid     = flag.Float64("grid", 10000, "grid side in µm")
	spacing  = flag.Float64("spacing", 800, "max insertion-point spacing in µm (0 = none)")
	steiner  = flag.Bool("steiner", true, "use iterated 1-Steiner routing (false = MST)")
	sources  = flag.Float64("sources", 1.0, "fraction of terminals acting as sources")
	sinks    = flag.Float64("sinks", 1.0, "fraction of terminals acting as sinks")
	name     = flag.String("name", "", "net name (default derived from parameters)")
	out      = flag.String("out", "", "output file (default stdout)")
	spefOut  = flag.String("spef", "", "also write the parasitics as SPEF to this path")
	obsFlags = cliflags.Register(flag.CommandLine, cliflags.Caps{})
)

func main() {
	flag.Parse()
	run, err := obsFlags.Start()
	if err != nil {
		cliflags.Fatal("netgen", err)
	}
	run.Finish("netgen", generate())
}

// generate builds the random net and writes it, and its SPEF view when
// asked.
func generate() error {
	p := netgen.Params{
		Terminals:             *pins,
		GridUm:                *grid,
		MaxInsertionSpacingUm: *spacing,
		UseSteiner:            *steiner,
		SourceFrac:            *sources,
		SinkFrac:              *sinks,
	}
	tr, err := netgen.Generate(*seed, p)
	if err != nil {
		return err
	}
	netName := *name
	if netName == "" {
		netName = fmt.Sprintf("rand-%dpin-seed%d", *pins, *seed)
	}
	if *out != "" {
		err = netio.Save(*out, netName, tr, buslib.Default())
	} else {
		err = netio.Write(os.Stdout, netio.Encode(netName, tr, buslib.Default()))
	}
	if err != nil {
		return err
	}
	if *spefOut != "" {
		err := atomicfile.Write(*spefOut, func(w io.Writer) error {
			return spef.Write(w, netName, tr, buslib.Default())
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", *spefOut)
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d terminals, %d insertion points, %.0f µm wire\n",
		netName, len(tr.Terminals()), len(tr.Insertions()), tr.TotalWireLength())
	return nil
}
