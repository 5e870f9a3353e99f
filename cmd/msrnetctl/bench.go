package main

import (
	"flag"
	"fmt"
	"os"

	"msrnet/internal/bench"
	"msrnet/internal/cliflags"
	"msrnet/internal/solveprof"
)

// runBench is `msrnetctl bench`, the perf-regression observatory: it
// runs the fixed paper-derived workload suite (ARD characterization on
// §VI-style random nets, MSRI dynamic-program sweeps), writes a
// schema-versioned report with each workload's deterministic work
// counters, and — given a baseline — exits 1 if anything regressed past
// the threshold.
//
// Comparison is on the DP's deterministic work counters (solutions
// created, prune calls, set sizes…), which are machine-independent, so
// a committed baseline stays meaningful on any runner. Wall time is
// perfbench's to measure. The MSRI workloads additionally carry waste
// counters (dead-candidate share of PWL segment ops); the waste-budget
// gate fails the run when a workload's waste ratio grows more than
// -waste-threshold per-mille points past the baseline.
func runBench(args []string) {
	const tool = "msrnetctl bench"
	fs := flag.NewFlagSet(tool, flag.ExitOnError)
	var (
		suite     = fs.String("suite", "quick", "workload suite: quick (CI-sized) or full")
		out       = fs.String("out", "BENCH_msrnet.json", "write the report to this file")
		baseline  = fs.String("baseline", "", "compare against this committed report; exit 1 on regression")
		threshold = fs.Float64("threshold", 0.25, "allowed fractional growth per work counter")
		wasteTol  = fs.Int64("waste-threshold", 5, "allowed waste-ratio growth in per-mille points (waste-budget gate; negative = don't gate)")
	)
	fs.Parse(args)

	rep, err := bench.Run(*suite)
	if err != nil {
		cliflags.Fatal(tool, err)
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		cliflags.Fatal(tool, err)
	}

	for _, wl := range rep.Workloads {
		fmt.Printf("%-14s", wl.Name)
		for _, key := range []string{"solutions_created", "prune_calls", "nodes"} {
			if v, ok := wl.Counters[key]; ok {
				fmt.Printf("  %s=%d", key, v)
			}
		}
		fmt.Printf("%s\n", wasteColumn(wl, base))
	}
	if err := rep.WriteFile(*out); err != nil {
		cliflags.Fatal(tool, err)
	}
	fmt.Println("wrote", *out)

	if base == nil {
		return
	}
	regs, err := bench.Compare(*base, rep, *threshold)
	if err != nil {
		cliflags.Fatal(tool, err)
	}
	if *wasteTol >= 0 {
		wregs, err := bench.WasteRegressions(*base, rep, *wasteTol)
		if err != nil {
			cliflags.Fatal(tool, err)
		}
		regs = append(regs, wregs...)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d regression(s) vs %s:\n", tool, len(regs), *baseline)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, " ", r)
		}
		os.Exit(1)
	}
	fmt.Printf("no regressions vs %s (counter threshold %.0f%%, waste slack %d‰)\n",
		*baseline, *threshold*100, *wasteTol)
}

// wasteColumn renders the waste-ratio column for MSRI workloads:
// deaths/born and the wasted-ops share, with the delta against the
// baseline when one is loaded.
func wasteColumn(wl bench.Workload, base *bench.Report) string {
	total, ok := wl.Counters["total_seg_ops"]
	if !ok {
		return ""
	}
	wasteRatio := wl.Counters["waste_per_mille"]
	col := fmt.Sprintf("  dropped/created=%s  wasted_ops=%s (%d/%d)",
		solveprof.FormatPerMille(solveprof.PerMille(wl.Counters["dropped"], wl.Counters["solutions_created"])),
		solveprof.FormatPerMille(wasteRatio), wl.Counters["wasted_seg_ops"], total)
	if bw, ok := baselineWorkload(base, wl.Name); ok {
		if b, ok := bw.Counters["waste_per_mille"]; ok {
			col += "  Δwaste=" + solveprof.FormatPerMilleDelta(wasteRatio-b)
		}
	}
	return col
}

// loadBaseline reads the committed msrnet-bench/v1 report that bench,
// prof and postmortem compare against; an empty path means none.
func loadBaseline(path string) (*bench.Report, error) {
	if path == "" {
		return nil, nil
	}
	rep, err := bench.Load(path)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// baselineWorkload finds the named workload in base, which may be nil.
func baselineWorkload(base *bench.Report, name string) (bench.Workload, bool) {
	if base != nil {
		for _, wl := range base.Workloads {
			if wl.Name == name {
				return wl, true
			}
		}
	}
	return bench.Workload{}, false
}
