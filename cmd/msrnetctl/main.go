// Command msrnetctl is the msrnet operator's tool. Without a
// subcommand it is the fleet-aware msrnetd client: it discovers a
// cluster's membership from any seed peer, routes each job of a
// msrnet-job/v1 batch to the job's home peer on the fleet's
// consistent-hash ring (where the shard cache hits in zero hops), fails
// over around dead peers, and merges the results back into request
// order. Against a single clusterless daemon it degrades to a plain
// retrying client. See DESIGN.md §13 and the README's "Running a
// 3-node fleet" walkthrough.
//
// Usage:
//
//	msrnetctl -peers http://h1:8383,http://h2:8383 -in batch.json
//	msrnetctl -peers http://h1:8383 -members        # print the membership
//	msrnetctl -peers http://h1:8383 -version        # peer build identity
//	msrnetctl -peers http://h1:8383 -api-key K -in batch.json   # multi-tenant daemon
//	msrnetctl -peers http://h1:8383 -api-key K -jobs            # fetch crash-recovered results
//	cat batch.json | msrnetctl -peers http://h1:8383 -in - -explain
//
// The request file is a msrnet-job/v1 body (same as POST /v1/jobs);
// the response JSON goes to stdout. Exit status is 0 only when every
// job succeeded.
//
// Three subcommands read offline artifacts instead of talking to a
// fleet. Each exits 1 on a failure, a failed regression gate included,
// and 2 on a usage error.
//
//	msrnetctl bench                              # quick suite -> BENCH_msrnet.json
//	msrnetctl bench -suite full
//	msrnetctl bench -baseline BENCH_msrnet.json -out /tmp/now.json
//	msrnetctl bench -baseline BENCH_msrnet.json -threshold 0.25 -waste-threshold 5
//
//	msrnetctl prof prof.json                     # render one msrnet-solveprof/v1 profile
//	msrnetctl prof old.json new.json             # diff two profiles
//	msrnetctl prof -bench msri/12pin             # profile a committed bench workload in-process
//	msrnetctl prof -bench msri/12pin -out p.json # ... and write the artifact
//	msrnetctl prof -bench msri/12pin old.json    # diff a saved profile against a fresh run
//	msrnetctl prof -baseline BENCH_msrnet.json -bench msri/12pin
//	                                             # check the waste ratio against the bench baseline
//
//	msrnetctl postmortem /var/lib/msrnet/postmortems/postmortem-...-worker_panic
//	msrnetctl postmortem -baseline BENCH_msrnet.json <bundle-dir>
//	msrnetctl postmortem -trace <traceID> <bundle-dir>
//	msrnetctl postmortem -list /var/lib/msrnet/postmortems   # enumerate bundles
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"msrnet/internal/atomicfile"
	"msrnet/internal/client"
	"msrnet/internal/cliflags"
	"msrnet/internal/obs/reqctx"
	"msrnet/internal/service"
	"msrnet/internal/spancollect"
)

// envAPIKey supplies the tenant credential when -api-key is not given,
// keeping the key out of shell history and process listings.
const envAPIKey = "MSRNET_API_KEY"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "bench":
			runBench(os.Args[2:])
			return
		case "prof":
			runProf(os.Args[2:])
			return
		case "postmortem":
			runPostmortem(os.Args[2:])
			return
		}
	}

	var (
		peers    = flag.String("peers", "", "comma-separated fleet seed base URLs (any live member; required)")
		in       = flag.String("in", "", "msrnet-job/v1 request file (\"-\" = stdin)")
		members  = flag.Bool("members", false, "print the discovered membership (one base URL per line) and exit")
		version  = flag.Bool("version", false, "print the first seed's /version build identity and exit")
		explain  = flag.Bool("explain", false, "ask for per-job msrnet-explain/v1 reports on the results")
		timeout  = flag.Duration("timeout", 5*time.Minute, "overall deadline for the whole batch, discovery and failover included")
		attempts = flag.Int("attempts", 0, "per-peer HTTP attempts per submission (0 = client default)")
		rounds   = flag.Int("rounds", -1, "job-level retry rounds per peer (-1 = client default, 0 = none)")
		apiKey   = flag.String("api-key", "", "tenant API key for a multi-tenant daemon (X-Msrnet-Api-Key; also via "+envAPIKey+")")
		jobs     = flag.Bool("jobs", false, "list this tenant's crash-recovered jobs from the first seed's GET /v1/recovered and exit (done results are acked on fetch; add -keep to peek)")
		keep     = flag.Bool("keep", false, "with -jobs: peek without acking, so the results stay fetchable")
		trace    = flag.String("trace", "", "collect the given trace ID's spans from every fleet member, stitch them, and print the cross-process waterfall + critical path")
		traceOut = flag.String("trace-out", "", "with -trace: also write the stitched Chrome trace-event file here (open in Perfetto)")
	)
	flag.Parse()

	var seeds []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			seeds = append(seeds, p)
		}
	}
	if len(seeds) == 0 {
		fmt.Fprintln(os.Stderr, "usage: msrnetctl -peers http://host:8383[,...] [-in batch.json | -members | -version]")
		fmt.Fprintln(os.Stderr, "       msrnetctl bench | prof | postmortem [flags]")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	key := *apiKey
	if key == "" {
		key = os.Getenv(envAPIKey)
	}

	if *version {
		if err := printVersion(ctx, seeds[0]); err != nil {
			fatal(err)
		}
		return
	}
	if *jobs {
		if err := printRecovered(ctx, seeds[0], key, *keep); err != nil {
			fatal(err)
		}
		return
	}

	opt := client.Options{MaxAttempts: *attempts, APIKey: key}
	if *rounds >= 0 {
		opt.JobRounds = *rounds
		if *rounds == 0 {
			opt.JobRounds = -1 // Options normalizes 0 to the default; -1 clamps to none
		}
	}
	c := client.NewCluster(seeds, opt)

	if *members {
		if err := c.Discover(ctx); err != nil {
			fatal(err)
		}
		for _, m := range c.Members() {
			fmt.Println(m)
		}
		return
	}

	if *trace != "" {
		if err := collectTrace(ctx, c, *trace, *traceOut); err != nil {
			fatal(err)
		}
		return
	}

	if *in == "" {
		fmt.Fprintln(os.Stderr, "msrnetctl: -in is required to submit a batch (or use -members / -version)")
		os.Exit(2)
	}
	req, err := readRequest(*in)
	if err != nil {
		fatal(err)
	}
	if *explain {
		req.Explain = true
	}
	resp, err := c.Run(ctx, req)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		fatal(err)
	}
	printProvenance(resp)
	for _, r := range resp.Results {
		if r.Status != service.StatusOK {
			os.Exit(1)
		}
	}
}

// printProvenance summarizes, on stderr, which fleet member actually
// served each explained job: work-stealing means the peer that answered
// the HTTP request is not necessarily the peer that solved the job, and
// before this summary a forwarded batch's output gave no hint of the
// hop. Silent when no explain carries fleet provenance (clusterless
// daemons, or batches submitted without -explain).
func printProvenance(resp *service.Response) {
	for _, r := range resp.Results {
		e := r.Explain
		if e == nil || (e.ServedBy == "" && e.ForwardedFrom == "") {
			continue
		}
		line := "msrnetctl: job " + label(e)
		switch {
		case e.ForwardedFrom != "":
			line += " solved by this peer after forward from " + e.ForwardedFrom
		case e.Outcome == service.OutcomeForwarded:
			line += " forwarded to and solved by " + e.ServedBy
		default:
			line += " served by " + e.ServedBy
		}
		if e.TraceID != "" {
			line += " (trace " + e.TraceID + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// label names a job in provenance output: the client's label when the
// batch gave one, else the daemon-assigned job ID.
func label(e *service.Explain) string {
	if e.Label != "" {
		return e.Label
	}
	return e.JobID
}

// collectTrace fans the trace ID out over the discovered membership,
// stitches every process's spans on one skew-corrected timeline, and
// prints the waterfall plus the critical-path attribution. With a
// -trace-out path it also writes the stitched Chrome trace-event file.
func collectTrace(ctx context.Context, c *client.ClusterClient, traceID, out string) error {
	if err := c.Discover(ctx); err != nil {
		return err
	}
	col, err := spancollect.Collect(ctx, c.Members(), traceID, spancollect.Options{})
	if err != nil {
		return err
	}
	col.Stitched.WriteWaterfall(os.Stdout)
	fmt.Println()
	col.Stitched.CriticalPath().Write(os.Stdout)
	for _, m := range col.Missing {
		fmt.Fprintf(os.Stderr, "msrnetctl: %s has no spans for this trace\n", m)
	}
	for _, e := range col.Errors {
		fmt.Fprintf(os.Stderr, "msrnetctl: %s\n", e)
	}
	if out != "" {
		if err := atomicfile.Write(out, col.Stitched.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "msrnetctl: stitched Chrome trace written to %s\n", out)
	}
	return nil
}

// readRequest loads the msrnet-job/v1 body from path ("-" = stdin).
func readRequest(path string) (*service.Request, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var req service.Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("msrnetctl: decode %s: %w", path, err)
	}
	return &req, nil
}

// printRecovered fetches the tenant's crash-recovered jobs from one
// peer's GET /v1/recovered and pretty-prints the msrnet-recovered/v1
// body. Unless keep is set, the daemon acknowledges the done results
// it hands over, so this call IS the delivery.
func printRecovered(ctx context.Context, peer, key string, keep bool) error {
	url := strings.TrimRight(peer, "/") + "/v1/recovered"
	if keep {
		url += "?keep=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if key != "" {
		req.Header.Set(reqctx.HeaderAPIKey, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("msrnetctl: %s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pretty json.RawMessage = body
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(pretty)
}

// printVersion fetches and pretty-prints one peer's build identity.
func printVersion(ctx context.Context, peer string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(peer, "/")+"/version", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("msrnetctl: %s/version: HTTP %d", peer, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	os.Stdout.Write(body)
	return nil
}

func fatal(err error) { cliflags.Fatal("msrnetctl", err) }
