package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"msrnet/internal/obs/reqctx"
	"msrnet/internal/obs/spans"
	"msrnet/internal/service"
)

// clients is the number of closed-loop clients: nproc is 2, and
// msrnetctl-style callers submit and wait.
const clients = 2

// Serving list sizes come from -seconds at these nominal rates,
// measured at the commit that defined the benchmark on a 2-core x86-64
// box, rounded to whole rounds over the corpus.
const (
	optJobsPerSecond = 25
	ardJobsPerSecond = 1800
	optWarmup        = 24   // warm-up jobs per set-up (distinct nets)
	ardWarmup        = 1500 // warm-up jobs per set-up
	ardWarmNets      = 50
)

// family is one serving workload's job shape.
type family struct {
	name    string // metric infix: "opt" or "ard"
	mode    string // msrnet-job/v1 mode
	wal     bool   // run msrnetd with -wal-dir
	pins    int
	corpus  int // distinct base nets
	rate    int // nominal jobs per second
	warmup  int
	warmNet int // distinct warm-up nets
}

var (
	optFamily = family{name: "opt", mode: "both", wal: true, pins: 10, corpus: optNets, rate: optJobsPerSecond, warmup: optWarmup, warmNet: optWarmup}
	ardFamily = family{name: "ard", mode: "ard", wal: false, pins: ardPins, corpus: ardNets, rate: ardJobsPerSecond, warmup: ardWarmup, warmNet: ardWarmNets}
)

// rounds converts a length in seconds into whole rounds over the corpus.
func (f family) rounds(seconds float64) int {
	return max(1, int(math.Round(seconds*float64(f.rate)/float64(f.corpus))))
}

// template is a pre-encoded request body around the net name, so the
// timed loop only concatenates bytes.
type template struct{ pre, post []byte }

const namePlaceholder = "@@PERFBENCH-NET-NAME@@"

func newTemplate(b *baseNet, mode string, explain bool) (*template, error) {
	f := b.file
	f.Name = namePlaceholder
	body, err := json.Marshal(service.Request{
		Version: service.SchemaVersion,
		Jobs:    []service.Job{{ID: "0", Mode: mode, Net: f}},
		Explain: explain,
	})
	if err != nil {
		return nil, err
	}
	pre, post, ok := bytes.Cut(body, []byte(namePlaceholder))
	if !ok {
		return nil, fmt.Errorf("net name placeholder missing from the encoded request")
	}
	return &template{pre: pre, post: post}, nil
}

// job is one request of a list.
type job struct {
	net  *baseNet
	tmpl *template
	name string // distinct net name; also the trace ID of a traced job
}

// corpusJobs builds a list of rounds seed-shuffled passes over nets.
func corpusJobs(nets []*baseNet, f family, explain bool, rounds int, seed int64, list string) ([]job, error) {
	tmpls := map[*baseNet]*template{}
	for _, b := range nets {
		t, err := newTemplate(b, f.mode, explain)
		if err != nil {
			return nil, err
		}
		tmpls[b] = t
	}
	var jobs []job
	for i, b := range cycle(nets, rounds, seed) {
		jobs = append(jobs, job{net: b, tmpl: tmpls[b], name: jobName(f.name, seed, list, i)})
	}
	return jobs, nil
}

// outcome is what one request returned.
type outcome struct {
	start     time.Time // request sent
	end       time.Time // response decoded
	ms        float64
	status    int
	err       error
	res       service.Result
	reqBytes  int
	respBytes int
	bad       bool           // failed or answered wrongly; set by checkServed
	spans     []spans.Record // traced: the daemon's spans for this job
	spanErr   error
}

// drive sends the list from the closed-loop clients, each taking the
// next job as soon as its previous one is answered. Latency runs from
// request sent to response decoded; a traced list additionally fetches
// each job's spans from the daemon after the response. No retries.
func drive(base string, jobs []job, traced bool, log *spanLog) ([]outcome, time.Duration) {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	defer tr.CloseIdleConnections()
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				outs[i] = send(hc, base, jobs[i], traced, &buf, log)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

func send(hc *http.Client, base string, j job, traced bool, buf *[]byte, log *spanLog) outcome {
	b := append(append(append((*buf)[:0], j.tmpl.pre...), j.name...), j.tmpl.post...)
	*buf = b
	o := outcome{reqBytes: len(b)}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(reqctx.HeaderTraceID, j.name)
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status, o.respBytes = resp.StatusCode, len(body)
	if err == nil && resp.StatusCode == http.StatusOK {
		var out service.Response
		if err = json.Unmarshal(body, &out); err == nil && len(out.Results) != 1 {
			err = fmt.Errorf("%d results for one job", len(out.Results))
		}
		if err == nil {
			o.res = out.Results[0]
		}
	}
	t1 := time.Now()
	o.start, o.end, o.ms, o.err = t0, t1, ms(t1.Sub(t0)), err
	if !traced {
		return o
	}
	root := log.add(0, j.name, "http POST /v1/jobs", t0, t1)
	t2 := time.Now()
	o.spans, o.spanErr = fetchSpans(hc, base, j.name)
	log.add(root, j.name, "http GET /debug/spans", t2, time.Now())
	return o
}

func fetchSpans(hc *http.Client, base, traceID string) ([]spans.Record, error) {
	resp, err := hc.Get(base + "/debug/spans/" + traceID)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/spans/%s: %s", traceID, resp.Status)
	}
	var exp spans.TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		return nil, err
	}
	return exp.Spans, nil
}

// daemon is one msrnetd child process on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{}
	err  error
}

// startDaemon launches msrnetd with its default flags apart from the
// loopback listen address (and -wal-dir for a durable family) and waits
// for /readyz.
func (r *run) startDaemon(tag string, wal bool) (*daemon, error) {
	if _, err := os.Stat(r.msrnetd); err != nil {
		return nil, fmt.Errorf("serving workloads need msrnetd built by perfbench/run.sh: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-listen", "127.0.0.1:" + port}
	if wal {
		args = append(args, "-wal-dir", filepath.Join(r.dir, "wal-"+tag))
	}
	logPath := filepath.Join(r.dir, "msrnetd-"+tag+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	cmd := exec.Command(r.msrnetd, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + port, log: logPath, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("msrnetd exited before ready (%v):\n%s", d.err, tail(logPath))
		default:
		}
		if resp, err := hc.Get(d.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("msrnetd not ready after 30s:\n%s", tail(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it after 30 s, and waits
// for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	_, port, err := net.SplitHostPort(ln.Addr().String())
	return port, err
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// procCPUms is a process's user+system CPU time from /proc/<pid>/stat.
func procCPUms(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime", pid)
	}
	const msPerTick = 10 // USER_HZ is 100 on Linux
	return (utime + stime) * msPerTick, nil
}

// procHWM is a process's peak resident set (VmHWM) in MB.
func procHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// cpuSteal reads the machine-wide CPU tick counters from /proc/stat:
// ticks stolen by the hypervisor and all ticks. Their change over a
// list says how much of it the machine was not running this VM.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// vars is the part of msrnetd's /debug/vars the benchmark reads.
type vars struct {
	Msrnet struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"msrnet"`
	Memstats struct {
		Mallocs    uint64 `json:"Mallocs"`
		TotalAlloc uint64 `json:"TotalAlloc"`
		NumGC      uint32 `json:"NumGC"`
	} `json:"memstats"`
}

func (d *daemon) vars() (*vars, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v vars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

// varsDelta is the change in the daemon's counters over a list.
type varsDelta struct{ before, after *vars }

func (v varsDelta) counter(name string) float64 {
	return float64(v.after.Msrnet.Counters[name] - v.before.Msrnet.Counters[name])
}

func (v varsDelta) print(r *run, prefixes ...string) {
	var parts []string
	for name, after := range v.after.Msrnet.Counters {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && after != v.before.Msrnet.Counters[name] {
				parts = append(parts, fmt.Sprintf("%s+%d", name, after-v.before.Msrnet.Counters[name]))
			}
		}
	}
	sort.Strings(parts)
	r.logf("  /debug/vars deltas: %s; memstats Mallocs+%d TotalAlloc+%d NumGC+%d", strings.Join(parts, " "),
		v.after.Memstats.Mallocs-v.before.Memstats.Mallocs, v.after.Memstats.TotalAlloc-v.before.Memstats.TotalAlloc,
		v.after.Memstats.NumGC-v.before.Memstats.NumGC)
}

// listResult is one measured list against one daemon.
type listResult struct {
	jobs     []job
	outs     []outcome
	wall     time.Duration
	cpuMs    float64 // daemon CPU over the list
	vars     varsDelta
	ok       int
	failed   int
	rejected int
}

func (l *listResult) throughput() float64 { return float64(l.ok) / l.wall.Seconds() }

// segments is how many consecutive slices of a timed list the serving
// workloads report medians over, so a burst of machine noise during one
// slice does not move them.
const segments = 5

// segment returns the outcomes of the k-th of segments equal slices of
// the list; the clients take jobs in list order, so each slice is a
// stretch of time.
func (l *listResult) segment(k int) []outcome {
	n := len(l.outs)
	return l.outs[k*n/segments : (k+1)*n/segments]
}

// segmentThroughput is OK jobs over the slice's wall time, from its
// first request sent to its last response decoded.
func segmentThroughput(outs []outcome) float64 {
	var first, last time.Time
	ok := 0
	for _, o := range outs {
		if first.IsZero() || o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
		if !o.bad {
			ok++
		}
	}
	return float64(ok) / last.Sub(first).Seconds()
}

// latencies returns every job's latency, failed jobs as +Inf.
func latencies(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.ms
		if o.bad {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

// measure runs one list against d, reading /debug/vars and the daemon's
// CPU at both ends, then checks every answer.
func (r *run) measure(d *daemon, f family, jobs []job, traced bool, log *spanLog) (*listResult, error) {
	before, err := d.vars()
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPUms(d.pid())
	if err != nil {
		return nil, err
	}
	s0, t0 := cpuSteal()
	outs, wall := drive(d.base, jobs, traced, log)
	s1, t1 := cpuSteal()
	r.logf("  machine steal during the list: %.1f%%", 100*(s1-s0)/max(1, t1-t0))
	cpu1, err := procCPUms(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := d.vars()
	if err != nil {
		return nil, err
	}
	l := &listResult{jobs: jobs, outs: outs, wall: wall, cpuMs: cpu1 - cpu0, vars: varsDelta{before, after}}
	r.checkServed(f, l)
	if hits := l.vars.counter("svc/cache_hits"); hits != 0 {
		r.problem("%d cache hits on a list of distinct nets: the workload is broken", int(hits))
	}
	return l, nil
}

// checkServed checks every answer of a list and counts failures: a
// transport error, a non-200 status, a non-ok result or a wrong answer.
func (r *run) checkServed(f family, l *listResult) {
	wantARD := map[*baseNet]float64{}
	for i, o := range l.outs {
		b := l.jobs[i].net
		bad := false
		switch {
		case o.err != nil:
			bad = true
		case o.status == http.StatusTooManyRequests:
			l.rejected++
			bad = true
		case o.status != http.StatusOK:
			bad = true
		case o.res.Status != service.StatusOK || o.res.Degraded || o.res.Cached:
			bad = true
		default:
			bad = !r.checkResult(f, b, o.res, wantARD)
		}
		if bad {
			l.outs[i].bad = true
			l.failed++
			if o.err != nil || o.status != http.StatusOK {
				if l.failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: job %s: status %d err %v %s %s\n", l.jobs[i].name, o.status, o.err, o.res.Code, o.res.Error)
				}
			}
		} else {
			l.ok++
		}
	}
}

// checkResult checks one served answer: the ARD against in-process
// ard.Compute on the decoded net and the committed digest; for an
// optimize job, the suite against the digest and the returned
// assignment recomputed with ard.Compute and Assignment.Cost.
func (r *run) checkResult(f family, b *baseNet, res service.Result, wantARD map[*baseNet]float64) bool {
	if res.ARD == nil {
		r.problem("net %s: no ARD in a %s result", b.key, f.mode)
		return false
	}
	want, ok := wantARD[b]
	if !ok {
		v, err := decodedARD(b)
		if err != nil {
			r.problem("net %s: %v", b.key, err)
			return false
		}
		want, wantARD[b] = v, v
		if !r.checkARDDigest(b.key, v) {
			return false
		}
	}
	if res.ARD.ARD != want {
		r.problem("net %s: served ARD %v, in-process ard.Compute %v", b.key, res.ARD.ARD, want)
		return false
	}
	if f.mode == "ard" {
		return true
	}
	opt := res.Opt
	if opt == nil || len(opt.Suite) == 0 {
		r.problem("net %s: no suite in an optimize result", b.key)
		return false
	}
	cost := make([]float64, len(opt.Suite))
	ardNs := make([]float64, len(opt.Suite))
	for i, p := range opt.Suite {
		cost[i], ardNs[i] = p.Cost, p.ARD
	}
	if !r.checkSuiteDigest(b.key, suiteDigest(cost, ardNs)) {
		return false
	}
	if last := opt.Suite[len(opt.Suite)-1]; opt.Chosen != last || opt.Assign.Cost != last.Cost || opt.Assign.ARD != last.ARD {
		r.problem("net %s: chosen %+v is not the suite's min-ARD point %+v", b.key, opt.Chosen, last)
		return false
	}
	asg, err := assignmentFrom(opt.Assign)
	if err != nil {
		r.problem("net %s: %v", b.key, err)
		return false
	}
	return r.recheck(b, asg, opt.Chosen.Cost, opt.Chosen.ARD)
}

// servingSetup launches msrnetd and runs the warm-up list,
// setupRepeats times, keeping the last daemon; setup_s is the median
// time from launch to the end of the warm-up.
func (r *run) servingSetup(f family) (*daemon, error) {
	warmNets, err := genNets(f.pins, r.corpusSeed+warmSeedOffset, f.warmNet)
	if err != nil {
		return nil, err
	}
	warm, err := corpusJobs(warmNets, f, false, max(1, f.warmup/f.warmNet), 0, "w")
	if err != nil {
		return nil, err
	}
	var times []float64
	var d *daemon
	for i := range setupRepeats {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		if d, err = r.startDaemon(fmt.Sprintf("setup%d", i), f.wal); err != nil {
			return nil, err
		}
		outs, _ := drive(d.base, warm, false, nil)
		times = append(times, time.Since(t0).Seconds())
		l := &listResult{jobs: warm, outs: outs}
		r.checkServed(f, l)
		r.account(fmt.Sprintf("warm-up %d", i+1), len(warm), l.failed, l.rejected)
	}
	r.logf("  set-up %d times: %.4f s median (%v)", setupRepeats, median(times), times)
	r.set("setup_s", "s", median(times))
	return d, nil
}

// serve is the untraced run of a serving family.
func (r *run) serve(f family) error {
	nets, err := genNets(f.pins, r.corpusSeed, f.corpus)
	if err != nil {
		return err
	}
	jobs, err := corpusJobs(nets, f, false, f.rounds(float64(r.seconds)), r.seed, "m")
	if err != nil {
		return err
	}
	d, err := r.servingSetup(f)
	if err != nil {
		return err
	}
	defer d.stop()
	l, err := r.measure(d, f, jobs, false, nil)
	if err != nil {
		return err
	}
	r.account("timed list", len(jobs), l.failed, l.rejected)
	l.vars.print(r, "svc/", "wal/", "core/")
	// Throughput and the tail are medians over the list's segments;
	// p50 is over every job.
	var tput, tails []float64
	q, err := tailQuantile(len(l.outs) / segments)
	if err != nil {
		return err
	}
	for k := range segments {
		seg := l.segment(k)
		tput = append(tput, segmentThroughput(seg))
		v, beyond := quantile(latencies(seg), q)
		tails = append(tails, v)
		r.logf("  segment %d: %d jobs, %.2f jobs/s, p%g %.3f ms (%d beyond)", k+1, len(seg), tput[k], q*100, v, beyond)
	}
	r.logf("  whole list: %.2f jobs/s over %.2f s", l.throughput(), l.wall.Seconds())
	r.set("throughput_jobs_per_s", "jobs/s", median(tput))
	if err := r.percentile("latency_ms_p50", latencies(l.outs), 0.5); err != nil {
		return err
	}
	r.set("latency_ms_tail", "ms", median(tails))
	r.set("cpu_ms_per_job", "ms", l.cpuMs/float64(len(jobs)))
	hwm, err := procHWM(d.pid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", "MB", hwm)
	return nil
}

func (r *run) serveOptimize() error { return r.serve(optFamily) }
func (r *run) serveARD() error      { return r.serve(ardFamily) }

// A traced run measures its own family's lists at half length, but
// never shorter than a probe, which keeps a traced run, with its probes
// of every other layer, well inside the time a run may take.
func (r *run) serveOptimizeTraced(p *probes) (float64, float64, error) {
	return r.servingProbe(p, optFamily, max(float64(r.seconds)/2, probeSeconds))
}

func (r *run) serveARDTraced(p *probes) (float64, float64, error) {
	return r.servingProbe(p, ardFamily, max(float64(r.seconds)/2, probeSeconds))
}

// servingProbe runs a family's list untraced and then traced against
// one freshly started daemon and reports the family's service, jobstore
// and span layer metrics. It returns both throughputs.
func (r *run) servingProbe(p *probes, f family, seconds float64) (float64, float64, error) {
	p.served[f.name] = true
	nets, err := genNets(f.pins, r.corpusSeed, f.corpus)
	if err != nil {
		return 0, 0, err
	}
	rounds := f.rounds(seconds)
	plain, err := corpusJobs(nets, f, false, rounds, r.seed, "u")
	if err != nil {
		return 0, 0, err
	}
	traced, err := corpusJobs(nets, f, true, rounds, r.seed, "t")
	if err != nil {
		return 0, 0, err
	}
	d, err := r.startDaemon("probe-"+f.name, f.wal)
	if err != nil {
		return 0, 0, err
	}
	defer d.stop()
	u, err := r.measure(d, f, plain, false, nil)
	if err != nil {
		return 0, 0, err
	}
	r.account(f.name+" untraced", len(plain), u.failed, u.rejected)
	t, err := r.measure(d, f, traced, true, p.spans)
	if err != nil {
		return 0, 0, err
	}
	r.account(f.name+" traced", len(traced), t.failed, t.rejected)
	if err := r.serviceMetrics(f, u, t); err != nil {
		return 0, 0, err
	}
	return u.throughput(), t.throughput(), nil
}

// serviceMetrics reports one family's per-layer serving metrics: counts
// from the untraced list's /debug/vars deltas, times from the traced
// list's explain reports and daemon spans.
func (r *run) serviceMetrics(f family, u, t *listResult) error {
	n := float64(len(u.jobs))
	pre := "service." + f.name + "."
	r.set(pre+"alloc_kb_per_job", "KB", float64(u.vars.after.Memstats.TotalAlloc-u.vars.before.Memstats.TotalAlloc)/n/1024)
	r.set(pre+"gc_per_1k_jobs", "count", float64(u.vars.after.Memstats.NumGC-u.vars.before.Memstats.NumGC)*1000/n)
	hits, misses := u.vars.counter("svc/cache_hits"), u.vars.counter("svc/cache_misses")
	r.set(pre+"cache_hit_ratio", "ratio", hits/math.Max(1, hits+misses))
	r.set(pre+"failed_per_mille", "permille", perMille(u.vars.counter("svc/jobs_failed"), n))
	r.set(pre+"rejected_per_mille", "permille", perMille(u.vars.counter("svc/jobs_rejected"), n))
	if f.wal {
		r.set("jobstore.appends_per_job", "count", u.vars.counter("wal/appends")/n)
		r.set("jobstore.fsyncs_per_job", "count", u.vars.counter("wal/fsync_batches")/n)
		r.set("jobstore.errors", "count", u.vars.counter("wal/append_errors")+u.vars.counter("wal/fsync_errors"))
	}

	var queue, solve, other, http, walMs, spanCount, reqB, respB, dpSols []float64
	for i, o := range t.outs {
		if o.bad || o.res.Explain == nil || o.spanErr != nil {
			continue
		}
		e := o.res.Explain
		queue = append(queue, e.QueueWaitMs)
		solve = append(solve, e.SolveMs)
		if e.Solve != nil {
			dpSols = append(dpSols, float64(e.Solve.SolutionsCreated))
		}
		self, rootMs := selfTimes(o.spans)
		other = append(other, self[spans.ClassOther])
		walMs = append(walMs, self[spans.ClassFsync])
		http = append(http, t.outs[i].ms-rootMs)
		spanCount = append(spanCount, float64(len(o.spans)))
		reqB = append(reqB, float64(o.reqBytes))
		respB = append(respB, float64(o.respBytes))
	}
	if len(queue) < len(t.outs) {
		r.problem("%s traced list: %d of %d jobs came back without an explain report or spans", f.name, len(t.outs)-len(queue), len(t.outs))
	}
	for _, pc := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{pre + "queue_wait_ms_p50", queue, 0.5},
		{pre + "queue_wait_ms_p90", queue, 0.9},
		{pre + "solve_ms_p50", solve, 0.5},
		{pre + "other_ms_p50", other, 0.5},
		{pre + "http_ms_p50", http, 0.5},
	} {
		if err := r.percentile(pc.name, pc.xs, pc.q); err != nil {
			return err
		}
	}
	m := float64(len(queue))
	r.set(pre+"request_kb", "KB", sum(reqB)/m/1024)
	r.set(pre+"response_kb", "KB", sum(respB)/m/1024)
	r.set("obs."+f.name+".spans_per_job", "count", sum(spanCount)/m)
	if f.wal {
		r.set("jobstore.wal_ms_per_job", "ms", sum(walMs)/m)
		// The DP shape as the daemon's explain report states it.
		r.set("service.opt.dp_solutions_per_job", "count", sum(dpSols)/float64(max(1, len(dpSols))))
	}
	return nil
}

// selfTimes returns one job's daemon span self time by class (duration
// minus the part its children cover) and the summed duration of its
// root spans.
func selfTimes(recs []spans.Record) (map[string]float64, float64) {
	byID := map[int64]spans.Record{}
	for _, s := range recs {
		byID[s.ID] = s
	}
	child := map[int64]int64{}
	var rootNs int64
	for _, s := range recs {
		p, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			rootNs += s.DurNs
			continue
		}
		lo, hi := max(s.StartUnixNs, p.StartUnixNs), min(s.StartUnixNs+s.DurNs, p.StartUnixNs+p.DurNs)
		if hi > lo {
			child[s.Parent] += hi - lo
		}
	}
	self := map[string]float64{}
	for _, s := range recs {
		self[spans.ClassOf(s.Name)] += float64(max(0, s.DurNs-child[s.ID])) / 1e6
	}
	return self, float64(rootNs) / 1e6
}
