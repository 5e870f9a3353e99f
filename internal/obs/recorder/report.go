package recorder

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Baseline is the perf observatory's DP shape that a report compares a
// bundle's solved jobs against: per-net means over the msri workloads
// of a bench suite.
type Baseline struct {
	// Suite names the bench suite the means come from.
	Suite string
	// Workloads is the number of msri workloads averaged.
	Workloads int
	// SolutionsPerNet is the mean of solutions created per net; it must
	// be positive.
	SolutionsPerNet float64
	// DroppedPerNet is the mean of candidates dropped per net; the row
	// is omitted when it is 0.
	DroppedPerNet float64
}

// WriteReport renders a loaded bundle as the human-readable incident
// report `msrnetctl postmortem` prints: the trigger, a timeline of the
// recorder ring around it, the latency movers, the jobs that were in
// flight, and — when a baseline is supplied — the DP-shape deltas
// against the committed perf observatory numbers.
func WriteReport(w io.Writer, b *Bundle, baseline *Baseline) error {
	pw := &printWriter{w: w}
	writeHeader(pw, b)
	writeTimeline(pw, b)
	writeLatencyMovers(pw, b)
	writeJobs(pw, b)
	writeDPShape(pw, b, baseline)
	writeArtifacts(pw, b)
	return pw.err
}

// printWriter accumulates the first write error so the sections can
// print without per-line error plumbing.
type printWriter struct {
	w   io.Writer
	err error
}

func (p *printWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func writeHeader(p *printWriter, b *Bundle) {
	tr := b.Manifest.Trigger
	p.printf("== msrnet postmortem (%s) ==\n", b.Manifest.Schema)
	p.printf("bundle:  %s\n", b.Dir)
	p.printf("trigger: %s", tr.Reason)
	if tr.Detail != "" {
		p.printf(" (%s)", tr.Detail)
	}
	p.printf("  at %s\n", time.UnixMilli(tr.TimeUnixMs).UTC().Format(time.RFC3339))
	for _, rs := range b.Manifest.Rules {
		if rs.Firing || rs.Breaching {
			state := "breaching"
			if rs.Firing {
				state = "FIRING"
			}
			p.printf("rule:    %s %s (value %.3g, threshold %g)\n", rs.Rule.Name, state, rs.Value, rs.Rule.Threshold)
		}
	}
	p.printf("\n")
}

// timelineRows bounds the timeline section; the full ring stays in
// recorder.json for deeper digging.
const timelineRows = 12

func writeTimeline(p *printWriter, b *Bundle) {
	if len(b.Ring) == 0 {
		p.printf("-- timeline: recorder ring is empty --\n\n")
		return
	}
	ring := b.Ring
	if len(ring) > timelineRows {
		ring = ring[len(ring)-timelineRows:]
	}
	t0 := b.Manifest.Trigger.TimeUnixMs
	p.printf("-- timeline (last %d of %d samples, t=0 is the trigger) --\n", len(ring), len(b.Ring))
	p.printf("%9s %6s %9s %6s %5s %9s %9s %9s  %s\n",
		"t", "goros", "heap", "queue", "jobs", "failed", "p99-e2e", "shed", "firing")
	for _, s := range ring {
		c := s.Metrics.Counters
		q := s.Metrics.Quantiles["svc/latency/e2e/ok"]
		p.printf("%8.1fs %6d %8.1fM %6d %5d %9d %8.2fms %9d  %s\n",
			float64(s.TimeUnixMs-t0)/1e3,
			s.Runtime.Goroutines,
			float64(s.Runtime.HeapInuseBytes)/(1<<20),
			s.Metrics.Gauges["svc/queue_depth"],
			c["svc/jobs_completed"],
			c["svc/jobs_failed"],
			q.P99,
			c["svc/jobs_shed"],
			strings.Join(s.Firing, ","))
	}
	p.printf("\n")
}

// writeLatencyMovers diffs every window-quantile series between the
// oldest and newest ring sample and prints the biggest p99 movements —
// the "what got slow" answer.
func writeLatencyMovers(p *printWriter, b *Bundle) {
	if len(b.Ring) < 2 {
		return
	}
	first, last := b.Ring[0], b.Ring[len(b.Ring)-1]
	type mover struct {
		name     string
		from, to float64
		delta    float64
	}
	var movers []mover
	for name, q := range last.Metrics.Quantiles {
		f := first.Metrics.Quantiles[name]
		if q.Count == 0 && f.Count == 0 {
			continue
		}
		movers = append(movers, mover{name: name, from: f.P99, to: q.P99, delta: q.P99 - f.P99})
	}
	if len(movers) == 0 {
		return
	}
	sort.Slice(movers, func(i, j int) bool {
		if movers[i].delta != movers[j].delta {
			return movers[i].delta > movers[j].delta
		}
		return movers[i].name < movers[j].name
	})
	span := float64(last.TimeUnixMs-first.TimeUnixMs) / 1e3
	p.printf("-- top p99 movers over the ring (%.1fs) --\n", span)
	n := len(movers)
	if n > 5 {
		n = 5
	}
	for _, m := range movers[:n] {
		p.printf("  %-40s %8.2fms -> %8.2fms  (%+.2fms)\n", m.name, m.from, m.to, m.delta)
	}
	p.printf("\n")
}

func writeJobs(p *printWriter, b *Bundle) {
	if len(b.Jobs.Active) == 0 && len(b.Jobs.Recent) == 0 {
		return
	}
	if len(b.Jobs.Active) > 0 {
		p.printf("-- in-flight jobs at capture --\n")
		for _, j := range b.Jobs.Active {
			p.printf("  %-8s %-12s state=%-8s mode=%-5s trace=%s\n", j.JobID, j.Label, j.State, j.Mode, j.TraceID)
		}
		p.printf("\n")
	}
	if len(b.Jobs.Recent) > 0 {
		byOutcome := map[string]int{}
		var bad []JobReport
		for _, j := range b.Jobs.Recent {
			byOutcome[j.Outcome]++
			if j.Outcome != "" && j.Outcome != "ok" {
				bad = append(bad, j)
			}
		}
		var classes []string
		for c := range byOutcome {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		p.printf("-- recent jobs (%d in the done-ring) --\n", len(b.Jobs.Recent))
		for _, c := range classes {
			p.printf("  %-10s %d\n", c+":", byOutcome[c])
		}
		if len(bad) > 0 {
			if len(bad) > 8 {
				bad = bad[:8]
			}
			p.printf("  most recent non-ok:\n")
			for _, j := range bad {
				p.printf("    %-8s %-12s outcome=%-9s code=%-18s total=%.2fms trace=%s\n",
					j.JobID, j.Label, j.Outcome, j.Code, j.TotalMs, j.TraceID)
			}
		}
		slowest := append([]JobReport(nil), b.Jobs.Recent...)
		sort.Slice(slowest, func(i, j int) bool { return slowest[i].TotalMs > slowest[j].TotalMs })
		if len(slowest) > 5 {
			slowest = slowest[:5]
		}
		p.printf("  slowest:\n")
		for _, j := range slowest {
			p.printf("    %-8s %-12s total=%9.2fms queue=%8.2fms solve=%8.2fms\n",
				j.JobID, j.Label, j.TotalMs, j.QueueWaitMs, j.SolveMs)
		}
		p.printf("\n")
	}
}

// writeDPShape aggregates the DP shape of the bundle's solved jobs and,
// when a bench baseline is given, compares the per-job means against
// the baseline's msri workloads — a crashed daemon whose jobs created
// 10× the baseline's candidates per net tells a very different story
// from one whose DP shape was nominal.
func writeDPShape(p *printWriter, b *Bundle, baseline *Baseline) {
	var n, solutions, dropped, pruneCalls, maxSet int64
	for _, j := range b.Jobs.Recent {
		if j.Solve == nil {
			continue
		}
		n++
		solutions += int64(j.Solve.SolutionsCreated)
		dropped += int64(j.Solve.Dropped)
		pruneCalls += int64(j.Solve.PruneCalls)
		if int64(j.Solve.MaxSetSize) > maxSet {
			maxSet = int64(j.Solve.MaxSetSize)
		}
	}
	if n == 0 {
		return
	}
	p.printf("-- DP shape (over %d solved jobs in the done-ring) --\n", n)
	p.printf("  %-28s %10.1f\n", "mean solutions created/job", float64(solutions)/float64(n))
	p.printf("  %-28s %10.1f\n", "mean dropped/job", float64(dropped)/float64(n))
	p.printf("  %-28s %10.1f\n", "mean prune calls/job", float64(pruneCalls)/float64(n))
	p.printf("  %-28s %10d\n", "max set size", maxSet)
	if baseline != nil {
		obsMean := float64(solutions) / float64(n)
		p.printf("  vs baseline (%s, %d msri workloads):\n", baseline.Suite, baseline.Workloads)
		p.printf("    %-26s %10.1f  (observed/baseline %.2fx)\n", "baseline solutions/net",
			baseline.SolutionsPerNet, obsMean/baseline.SolutionsPerNet)
		if baseline.DroppedPerNet > 0 {
			p.printf("    %-26s %10.1f  (observed/baseline %.2fx)\n", "baseline dropped/net",
				baseline.DroppedPerNet, (float64(dropped)/float64(n))/baseline.DroppedPerNet)
		}
	}
	p.printf("\n")
}

func writeArtifacts(p *printWriter, b *Bundle) {
	p.printf("-- artifacts --\n")
	p.printf("  recorder ring: %d samples at %dms\n", len(b.Ring), b.RingIntervalMs)
	if b.GoroutineCount > 0 {
		p.printf("  goroutine dump: %d goroutines (%s)\n", b.GoroutineCount, fileGoroutines)
	}
	if b.HasHeap {
		p.printf("  heap profile: %s (go tool pprof %s/%s)\n", fileHeap, b.Dir, fileHeap)
	}
	if b.HasTrace {
		p.printf("  DP timeline: %s (load in Perfetto)\n", fileTrace)
	}
}
