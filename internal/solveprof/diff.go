package solveprof

import (
	"fmt"
	"io"
	"sort"
)

// SiteDelta is one birth site's change between two profiles.
type SiteDelta struct {
	Class      string
	Node       int
	Deaths     int   // new minus old
	WastedSegs int64 // new minus old
}

// Diff summarizes how waste moved between two profiles of comparable
// workloads (typically the same workload before and after a solver
// change).
type Diff struct {
	Old, New *Profile
	// Per-mille deltas of the headline ratios (new minus old).
	SegOpsPerMille int64
	AllocsPerMille int64
	DeathsPerMille int64
	// Sites, sorted by |wasted-seg-ops delta| descending, largest
	// movers first. Sites present in only one profile count from zero.
	Sites []SiteDelta
}

// Compute builds the differential report between two profiles.
func Compute(oldP, newP *Profile) *Diff {
	d := &Diff{
		Old:            oldP,
		New:            newP,
		SegOpsPerMille: newP.Waste.SegOpsPerMille - oldP.Waste.SegOpsPerMille,
		AllocsPerMille: newP.Waste.AllocsPerMille - oldP.Waste.AllocsPerMille,
		DeathsPerMille: newP.Waste.DeathsPerMille - oldP.Waste.DeathsPerMille,
	}
	type key struct {
		class string
		node  int
	}
	acc := map[key]*SiteDelta{}
	at := func(k key) *SiteDelta {
		sd := acc[k]
		if sd == nil {
			sd = &SiteDelta{Class: k.class, Node: k.node}
			acc[k] = sd
		}
		return sd
	}
	for _, r := range oldP.Matrix {
		sd := at(key{r.Class, r.Node})
		sd.Deaths -= r.TotalDeaths()
		sd.WastedSegs -= r.WastedSegOps()
	}
	for _, r := range newP.Matrix {
		sd := at(key{r.Class, r.Node})
		sd.Deaths += r.TotalDeaths()
		sd.WastedSegs += r.WastedSegOps()
	}
	for _, sd := range acc {
		if sd.Deaths != 0 || sd.WastedSegs != 0 {
			d.Sites = append(d.Sites, *sd)
		}
	}
	sort.Slice(d.Sites, func(i, j int) bool {
		ai, aj := abs64(d.Sites[i].WastedSegs), abs64(d.Sites[j].WastedSegs)
		if ai != aj {
			return ai > aj
		}
		if d.Sites[i].Class != d.Sites[j].Class {
			return d.Sites[i].Class < d.Sites[j].Class
		}
		return d.Sites[i].Node < d.Sites[j].Node
	})
	return d
}

// Render writes the differential report.
func (d *Diff) Render(w io.Writer, topN int) {
	if topN <= 0 {
		topN = 10
	}
	fmt.Fprintf(w, "solveprof diff: %s -> %s\n", label(d.Old), label(d.New))
	fmt.Fprintf(w, "  waste ratio (seg ops):  %s -> %s (%s)\n",
		FormatPerMille(d.Old.Waste.SegOpsPerMille), FormatPerMille(d.New.Waste.SegOpsPerMille),
		FormatPerMilleDelta(d.SegOpsPerMille))
	fmt.Fprintf(w, "  waste ratio (allocs):   %s -> %s (%s)\n",
		FormatPerMille(d.Old.Waste.AllocsPerMille), FormatPerMille(d.New.Waste.AllocsPerMille),
		FormatPerMilleDelta(d.AllocsPerMille))
	fmt.Fprintf(w, "  death rate (born):      %s -> %s (%s)\n",
		FormatPerMille(d.Old.Waste.DeathsPerMille), FormatPerMille(d.New.Waste.DeathsPerMille),
		FormatPerMilleDelta(d.DeathsPerMille))
	fmt.Fprintf(w, "  deaths: %d -> %d; wasted seg ops: %d -> %d\n",
		d.Old.Totals.Deaths, d.New.Totals.Deaths, d.Old.Waste.SegOps, d.New.Waste.SegOps)
	if len(d.Sites) == 0 {
		fmt.Fprintf(w, "  no per-site movement\n")
		return
	}
	fmt.Fprintf(w, "  top movers (wasted seg ops, new-old):\n")
	n := len(d.Sites)
	if n > topN {
		n = topN
	}
	for _, sd := range d.Sites[:n] {
		fmt.Fprintf(w, "    %-12s node %-5d %+8d deaths %+12d wasted segs\n",
			sd.Class, sd.Node, sd.Deaths, sd.WastedSegs)
	}
}

func label(p *Profile) string {
	if p.Workload != "" {
		return p.Workload
	}
	return p.Source
}

// FormatPerMilleDelta renders a signed per-mille delta in percentage
// points ("+1.2pp").
func FormatPerMilleDelta(pm int64) string {
	sign := "+"
	if pm < 0 {
		sign, pm = "-", -pm
	}
	return fmt.Sprintf("%s%d.%dpp", sign, pm/10, pm%10)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
