// Command benchreport is the perf-regression observatory: it runs the
// fixed paper-derived workload suite (ARD characterization on §VI-style
// random nets, MSRI dynamic-program sweeps), writes a schema-versioned
// report with each workload's deterministic work counters, and — given
// a baseline — exits non-zero if anything regressed past the threshold.
//
// Usage:
//
//	benchreport                                  # quick suite -> BENCH_msrnet.json
//	benchreport -suite full
//	benchreport -baseline BENCH_msrnet.json -out /tmp/now.json
//	benchreport -baseline BENCH_msrnet.json -threshold 0.25 -waste-threshold 5
//
// Comparison is on the DP's deterministic work counters (solutions
// created, prune calls, set sizes…), which are machine-independent, so
// a committed baseline stays meaningful on any runner. Wall time is
// perfbench's to measure. The MSRI workloads additionally carry waste counters (dead-candidate
// share of PWL segment ops); the waste-budget gate fails the run when a
// workload's waste ratio grows more than -waste-threshold per-mille
// points past the baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"msrnet/internal/bench"
	"msrnet/internal/cliflags"
	"msrnet/internal/solveprof"
)

func main() {
	var (
		suite     = flag.String("suite", "quick", "workload suite: quick (CI-sized) or full")
		out       = flag.String("out", "BENCH_msrnet.json", "write the report to this file")
		baseline  = flag.String("baseline", "", "compare against this committed report; exit 1 on regression")
		threshold = flag.Float64("threshold", 0.25, "allowed fractional growth per work counter")
		wasteTol  = flag.Int64("waste-threshold", 5, "allowed waste-ratio growth in per-mille points (waste-budget gate; negative = don't gate)")
	)
	flag.Parse()

	rep, err := bench.Run(*suite)
	if err != nil {
		fatal(err)
	}

	var base *bench.Report
	if *baseline != "" {
		b, err := bench.Load(*baseline)
		if err != nil {
			fatal(err)
		}
		base = &b
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
		fatal(err)
	}
	fmt.Println("wrote", *out)

	if base == nil {
		return
	}
	regs, err := bench.Compare(*base, rep, *threshold)
	if err != nil {
		fatal(err)
	}
	if *wasteTol >= 0 {
		wregs, err := bench.WasteRegressions(*base, rep, *wasteTol)
		if err != nil {
			fatal(err)
		}
		regs = append(regs, wregs...)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) vs %s:\n", len(regs), *baseline)
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
	dropRatio := solveprof.PerMille(wl.Counters["dropped"], wl.Counters["solutions_created"])
	wasteRatio := wl.Counters["waste_per_mille"]
	col := fmt.Sprintf("  dropped/created=%d.%d%%  wasted_ops=%d.%d%% (%d/%d)",
		dropRatio/10, dropRatio%10, wasteRatio/10, wasteRatio%10,
		wl.Counters["wasted_seg_ops"], total)
	if base != nil {
		for _, bw := range base.Workloads {
			if bw.Name != wl.Name {
				continue
			}
			if b, ok := bw.Counters["waste_per_mille"]; ok {
				d := wasteRatio - b
				sign := "+"
				if d < 0 {
					sign, d = "-", -d
				}
				col += fmt.Sprintf("  Δwaste=%s%d.%dpp", sign, d/10, d%10)
			}
			break
		}
	}
	return col
}

func fatal(err error) { cliflags.Fatal("benchreport", err) }
