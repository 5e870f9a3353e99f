package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"
	"strings"

	"msrnet/internal/ard"
	"msrnet/internal/buslib"
	"msrnet/internal/core"
	"msrnet/internal/netgen"
	"msrnet/internal/netio"
	"msrnet/internal/rctree"
	"msrnet/internal/topo"
)

// Corpus sizes and seeds. Per-net DP cost spans more than 30× across
// netgen seeds, so the nets of a workload come from a fixed corpus
// (netgen seeds corpus-seed, corpus-seed+1, ...) and the run seed only
// orders and names the jobs: every run does the same work, and a claim
// is re-checked on the held-out corpus seed.
const (
	defaultCorpusSeed = 1  // the paper's protocol, as in EXPERIMENTS.md
	heldOutCorpusSeed = 11 // nets 11..20: never used while tuning

	table4Nets = 10  // nets per pin count in the Table II/IV protocol
	optNets    = 50  // distinct 10-pin nets behind serve-optimize
	ardNets    = 300 // distinct 16-pin nets behind serve-ard
	ardPins    = 16

	// warmSeedOffset places the warm-up nets' netgen seeds away from
	// the corpus, so the warm-up list is distinct from the timed one.
	warmSeedOffset = 10000

	setupRepeats = 3 // set-ups per run; setup_s is their median
)

// baseNet is one generated net: its digest key, the tree rooted the way
// msrnetd and experiments.RunTopology root it (first terminal), and its
// file form.
type baseNet struct {
	key  string // "<pins>/<netgen seed>"
	tr   *topo.Tree
	rt   *topo.Rooted
	file netio.NetFile
}

func genNet(pins int, seed int64) (*baseNet, error) {
	tr, err := netgen.Generate(seed, netgen.Defaults(pins))
	if err != nil {
		return nil, fmt.Errorf("netgen %d pins seed %d: %w", pins, seed, err)
	}
	return &baseNet{
		key:  fmt.Sprintf("%d/%d", pins, seed),
		tr:   tr,
		rt:   tr.RootAt(tr.Terminals()[0]),
		file: netio.Encode("", tr, buslib.Default()),
	}, nil
}

func genNets(pins int, first int64, n int) ([]*baseNet, error) {
	out := make([]*baseNet, 0, n)
	for i := range n {
		b, err := genNet(pins, first+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// table4Corpus is the paper's Table II/IV protocol: ten 10-pin and ten
// 20-pin nets, netgen seeds c..c+9.
func table4Corpus(c int64) ([]*baseNet, error) {
	small, err := genNets(10, c, table4Nets)
	if err != nil {
		return nil, err
	}
	large, err := genNets(20, c, table4Nets)
	if err != nil {
		return nil, err
	}
	return append(small, large...), nil
}

// cycle returns rounds·len(nets) jobs in corpus order, starting at the
// net the seed picks. Every run does the same work in the same cyclic
// order, so which jobs run concurrently, and hence GC pacing and peak
// heap, does not change with the seed.
func cycle(nets []*baseNet, rounds int, seed int64) []*baseNet {
	n := int64(len(nets))
	start := int((seed%n + n) % n)
	out := make([]*baseNet, 0, rounds*len(nets))
	for i := range rounds * len(nets) {
		out = append(out, nets[(start+i)%len(nets)])
	}
	return out
}

// repeaterOptions are the DP options of every Table IV and
// serve-optimize solve: repeater insertion on the default technology.
var repeaterOptions = core.Options{Repeaters: true}

// suiteDigest hashes a Pareto suite's (cost, ARD) points, exactly.
func suiteDigest(cost, ardNs []float64) string {
	h := sha256.New()
	for i := range cost {
		fmt.Fprintf(h, "%s %s\n", strconv.FormatFloat(cost[i], 'g', -1, 64), strconv.FormatFloat(ardNs[i], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func coreSuiteDigest(s core.Suite) string {
	cost := make([]float64, len(s))
	ardNs := make([]float64, len(s))
	for i, p := range s {
		cost[i], ardNs[i] = p.Cost, p.ARD
	}
	return suiteDigest(cost, ardNs)
}

func ardString(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// digestBook holds the answers of one corpus seed, generated with
// -write-digests at the commit that defined the benchmark.
type digestBook struct {
	Schema     string            `json:"schema"`
	CorpusSeed int64             `json:"corpus_seed"`
	Suites     map[string]string `json:"suites"` // repeater-insertion suite digest by net key
	ARD        map[string]string `json:"ard"`    // unoptimized ARD (ns) by net key
}

const digestSchema = "msrnet-perfbench-digests/v1"

func loadDigests(path string) (*digestBook, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var book digestBook
	if err := json.Unmarshal(b, &book); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if book.Schema != digestSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, book.Schema, digestSchema)
	}
	return &book, nil
}

// checkSuiteDigest compares a suite against the committed digest when
// the run uses the committed corpus.
func (r *run) checkSuiteDigest(key, got string) bool {
	if r.digests == nil || r.digests.CorpusSeed != r.corpusSeed {
		return true
	}
	want, ok := r.digests.Suites[key]
	if !ok || want != got {
		r.problem("net %s: suite digest %s, committed %q", key, got, want)
		return false
	}
	return true
}

func (r *run) checkARDDigest(key string, v float64) bool {
	if r.digests == nil || r.digests.CorpusSeed != r.corpusSeed {
		return true
	}
	want, ok := r.digests.ARD[key]
	if !ok || want != ardString(v) {
		r.problem("net %s: ARD %s ns, committed %q", key, ardString(v), want)
		return false
	}
	return true
}

// decodedARD is in-process ard.Compute on the net as msrnetd decodes it.
func decodedARD(b *baseNet) (float64, error) {
	tr, tech, err := netio.Decode(b.file)
	if err != nil {
		return 0, err
	}
	net := rctree.NewNet(tr.RootAt(tr.Terminals()[0]), tech, rctree.Assignment{})
	return ard.Compute(net, ard.Options{}).ARD, nil
}

// tol is the agreement required between a reported value and its
// recomputation from the returned assignment.
const tol = 1e-9

// recheck recomputes a solution's ARD with ard.Compute and its cost
// with Assignment.Cost and reports any disagreement with the claimed
// values.
func (r *run) recheck(b *baseNet, asg rctree.Assignment, cost, ardNs float64) bool {
	got := ard.Compute(rctree.NewNet(b.rt, buslib.Default(), asg), ard.Options{}).ARD
	c := asg.Cost()
	if math.Abs(got-ardNs) > tol || math.Abs(c-cost) > tol {
		r.problem("net %s: claimed cost %v ARD %v, assignment gives cost %v ARD %v", b.key, cost, ardNs, c, got)
		return false
	}
	return true
}

// assignmentFrom rebuilds a served assignment on the default technology.
func assignmentFrom(a netio.AssignmentJSON) (rctree.Assignment, error) {
	tech := buslib.Default()
	asg := rctree.Assignment{}
	for _, p := range a.Repeaters {
		found := false
		for _, rep := range tech.Repeaters {
			if rep.Name == p.Name {
				if asg.Repeaters == nil {
					asg.Repeaters = map[int]rctree.Placed{}
				}
				asg.Repeaters[p.Node] = rctree.Placed{Rep: rep, ASideUp: p.ASideUp}
				found = true
				break
			}
		}
		if !found {
			return asg, fmt.Errorf("unknown repeater %q at node %d", p.Name, p.Node)
		}
	}
	if len(a.Drivers) > 0 || len(a.Widths) > 0 {
		return asg, fmt.Errorf("repeater-only job returned drivers or widths")
	}
	return asg, nil
}

// generateDigests solves every corpus net of seed c in-process and
// writes the answers the benchmark checks against.
func generateDigests(c int64, path string) error {
	book := digestBook{Schema: digestSchema, CorpusSeed: c, Suites: map[string]string{}, ARD: map[string]string{}}
	t4, err := table4Corpus(c)
	if err != nil {
		return err
	}
	opt, err := genNets(10, c, optNets)
	if err != nil {
		return err
	}
	ards, err := genNets(ardPins, c, ardNets)
	if err != nil {
		return err
	}
	// The warm-up lists are checked too.
	optWarm, err := genNets(10, c+warmSeedOffset, max(optWarmup, table4Warmup))
	if err != nil {
		return err
	}
	ardWarm, err := genNets(ardPins, c+warmSeedOffset, ardWarmNets)
	if err != nil {
		return err
	}
	opt = append(opt, optWarm...)
	ards = append(ards, ardWarm...)
	for _, b := range append(t4, opt...) {
		if _, ok := book.Suites[b.key]; ok {
			continue
		}
		res, err := core.Optimize(b.rt, buslib.Default(), repeaterOptions)
		if err != nil {
			return fmt.Errorf("net %s: %w", b.key, err)
		}
		book.Suites[b.key] = coreSuiteDigest(res.Suite)
		fmt.Fprintf(os.Stderr, "%s %s (%d points)\n", b.key, book.Suites[b.key], len(res.Suite))
	}
	for _, b := range append(opt, ards...) {
		v, err := decodedARD(b)
		if err != nil {
			return fmt.Errorf("net %s: %w", b.key, err)
		}
		book.ARD[b.key] = ardString(v)
	}
	out, err := json.MarshalIndent(book, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// jobName is the distinct net name of one job: it changes the content
// hash, so every job misses msrnetd's result cache while its work stays
// that of its base net.
func jobName(workload string, seed int64, list string, i int) string {
	return strings.Join([]string{"perfbench", workload, "s" + strconv.FormatInt(seed, 10), list, strconv.Itoa(i)}, "-")
}
