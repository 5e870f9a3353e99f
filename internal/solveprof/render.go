package solveprof

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Render writes a human-readable report of one profile: totals, the
// waste headline, the top wasted birth sites, the per-class churn, the
// survival-depth histogram and the wavefront peak — ending with the
// predictive-pruning upper bound (the share of work spent on candidates
// that provably never contribute; a perfect predictive pruner as in Li
// & Shi could remove at most that much).
func Render(w io.Writer, p *Profile, topN int) {
	if topN <= 0 {
		topN = 10
	}
	fmt.Fprintf(w, "solveprof %s", p.Source)
	if p.Workload != "" {
		fmt.Fprintf(w, " %s", p.Workload)
	}
	fmt.Fprintf(w, " (%d run%s)\n", p.Runs, plural(p.Runs))
	fmt.Fprintf(w, "  candidates: %d born, %d died (%s), %d survived to suite\n",
		p.Totals.Born, p.Totals.Deaths, FormatPerMille(p.Waste.DeathsPerMille), p.Totals.Survived)
	fmt.Fprintf(w, "  work: %d PWL seg ops (%d wasted, %s), %d allocs (%d wasted, %s), %d join pairings\n",
		p.Totals.SegOps, p.Waste.SegOps, FormatPerMille(p.Waste.SegOpsPerMille),
		p.Totals.Allocs, p.Waste.Allocs, FormatPerMille(p.Waste.AllocsPerMille),
		p.Totals.JoinPairings)
	if p.Stats != nil {
		fmt.Fprintf(w, "  solver: %d solutions created, %d prune calls, %d dropped, max set %d\n",
			p.Stats.SolutionsCreated, p.Stats.PruneCalls, p.Stats.Dropped, p.Stats.MaxSetSize)
	}

	fmt.Fprintf(w, "\n  per-class churn:\n")
	fmt.Fprintf(w, "    %-12s %8s %8s %8s %12s %14s\n", "class", "born", "died", "survived", "seg_ops", "wasted_segs")
	for _, ph := range p.Phases {
		fmt.Fprintf(w, "    %-12s %8d %8d %8d %12d %14d\n",
			ph.Class, ph.Born, ph.Deaths, ph.Survived, ph.SegOps, ph.WastedSegOps)
	}

	rows := topWasted(p, topN)
	if len(rows) > 0 {
		fmt.Fprintf(w, "\n  top wasted sites (by dead-candidate seg ops):\n")
		fmt.Fprintf(w, "    %-12s %6s %8s %8s %14s  %s\n", "class", "node", "born", "died", "wasted_segs", "causes")
		for _, r := range rows {
			fmt.Fprintf(w, "    %-12s %6d %8d %8d %14d  %s\n",
				r.Class, r.Node, r.Born, r.TotalDeaths(), r.WastedSegOps(), causesStr(r))
		}
	}

	fmt.Fprintf(w, "\n  survival depth of dying candidates (prune calls survived):\n")
	for _, d := range p.Depth {
		if d.Deaths == 0 {
			continue
		}
		fmt.Fprintf(w, "    depth %-3s %8d deaths %12d seg ops\n", d.Bucket, d.Deaths, d.SegOps)
	}

	if len(p.Wavefront) > 0 {
		peak := p.Wavefront[0]
		for _, r := range p.Wavefront {
			if r.Final > peak.Final {
				peak = r
			}
		}
		fmt.Fprintf(w, "\n  wavefront: %d nodes; peak set %d at node %d (%s)\n",
			len(p.Wavefront), peak.Final, peak.Node, peak.Kind)
	}

	fmt.Fprintf(w, "\n  predictive-pruning upper bound: removing all dead-candidate work would save\n")
	fmt.Fprintf(w, "  up to %s of PWL segment ops and %s of candidate allocations.\n",
		FormatPerMille(p.Waste.SegOpsPerMille), FormatPerMille(p.Waste.AllocsPerMille))
}

// topWasted returns the sites with the most dead-candidate seg ops,
// ties broken by (class, node) for deterministic output.
func topWasted(p *Profile, n int) []SiteRow {
	rows := make([]SiteRow, 0, len(p.Matrix))
	for _, r := range p.Matrix {
		if r.TotalDeaths() > 0 {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		wi, wj := rows[i].WastedSegOps(), rows[j].WastedSegOps()
		if wi != wj {
			return wi > wj
		}
		if rows[i].Class != rows[j].Class {
			return rows[i].Class < rows[j].Class
		}
		return rows[i].Node < rows[j].Node
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

func causesStr(r SiteRow) string {
	keys := make([]string, 0, len(r.Deaths))
	for c := range r.Deaths {
		keys = append(keys, c)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, c := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", c, r.Deaths[c].Deaths))
	}
	return strings.Join(parts, " ")
}

// FormatPerMille renders an integer per-mille ratio as a percentage
// ("12.3%").
func FormatPerMille(pm int64) string {
	return fmt.Sprintf("%d.%d%%", pm/10, pm%10)
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
