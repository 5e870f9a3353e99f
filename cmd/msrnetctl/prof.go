package main

import (
	"flag"
	"fmt"
	"os"

	"msrnet/internal/bench"
	"msrnet/internal/cliflags"
	"msrnet/internal/solveprof"
)

// runProf is `msrnetctl prof`, the differential analyzer for
// msrnet-solveprof/v1 artifacts: it renders where the MSRI solver
// wastes work (which candidate classes die, at which topology nodes,
// after how many survived prunes, at what PWL-segment cost), diffs two
// profiles, and checks a profile against the committed bench baseline,
// exiting 1 when its waste ratio grew.
//
// The rendered "predictive-pruning upper bound" is the share of work
// charged to candidates that die: a perfect predictive pruner (Li &
// Shi's O(bn²) bookkeeping, PAPERS.md) could remove at most that much
// of the solver's PWL/allocation work.
func runProf(args []string) {
	const tool = "msrnetctl prof"
	fs := flag.NewFlagSet(tool, flag.ExitOnError)
	var (
		benchWL  = fs.String("bench", "", "profile this committed bench workload (msri/<N>pin) in-process")
		out      = fs.String("out", "", "write the -bench profile artifact to this file")
		baseline = fs.String("baseline", "", "compare the profile's waste ratio against this committed bench report")
		top      = fs.Int("top", 10, "number of top wasted sites / movers to show")
	)
	fs.Parse(args)

	profiles, err := loadProfiles(fs.Args(), *benchWL)
	if err != nil {
		cliflags.Fatal(tool, err)
	}
	if *out != "" {
		if *benchWL == "" {
			cliflags.Fatal(tool, fmt.Errorf("-out requires -bench (saved profiles are already on disk)"))
		}
		if err := profiles[len(profiles)-1].WriteFile(*out); err != nil {
			cliflags.Fatal(tool, err)
		}
		fmt.Println("wrote", *out)
	}

	switch len(profiles) {
	case 1:
		solveprof.Render(os.Stdout, profiles[0], *top)
	case 2:
		solveprof.Compute(profiles[0], profiles[1]).Render(os.Stdout, *top)
	default:
		cliflags.Fatal(tool, fmt.Errorf("need one profile (render) or two (diff); got %d — see -h", len(profiles)))
	}

	if *baseline != "" {
		if err := checkWasteBaseline(*baseline, profiles[len(profiles)-1]); err != nil {
			cliflags.Fatal(tool, err)
		}
	}
}

// loadProfiles resolves positional artifact paths plus the optional
// in-process bench profile (which, when present, acts as the "new"
// side).
func loadProfiles(paths []string, benchWL string) ([]*solveprof.Profile, error) {
	var out []*solveprof.Profile
	for _, path := range paths {
		p, err := solveprof.Load(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if benchWL != "" {
		res, err := bench.ProfileMSRI(benchWL)
		if err != nil {
			return nil, err
		}
		p := solveprof.FromResult(res, "bench", benchWL)
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// checkWasteBaseline compares the profile's waste ratio against the
// committed bench counters for the same workload — the CLI face of the
// CI waste-budget gate.
func checkWasteBaseline(path string, p *solveprof.Profile) error {
	rep, err := loadBaseline(path)
	if err != nil {
		return err
	}
	wl, ok := baselineWorkload(rep, p.Workload)
	if !ok {
		return fmt.Errorf("baseline %s has no workload %q", path, p.Workload)
	}
	base, ok := wl.Counters["waste_per_mille"]
	if !ok {
		return fmt.Errorf("baseline %s has no waste counters for %s (regenerate it)", path, wl.Name)
	}
	cur := p.Waste.SegOpsPerMille
	fmt.Printf("\nbaseline %s: waste ratio %s vs committed %s (%s)\n", wl.Name,
		solveprof.FormatPerMille(cur), solveprof.FormatPerMille(base), solveprof.FormatPerMilleDelta(cur-base))
	if cur > base {
		return fmt.Errorf("waste ratio regressed vs baseline: %d‰ > %d‰", cur, base)
	}
	return nil
}
