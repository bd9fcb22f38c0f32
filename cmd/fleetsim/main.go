// Command fleetsim runs fleet-scale simulation experiments from
// declarative scenario configs: thousands of generated machine instances
// over simnet virtual time, driven by a seeded arrival process under a
// randomized fault schedule, with every delivery classified by the trace
// verdict vocabulary. The report (throughput, latency percentiles,
// per-verdict counts) is canonical JSON: the same scenario produces
// byte-identical reports, so checked-in golden reports are diffable in CI
// and any drift — or any unexpected violation — fails the gate.
//
// With -url the same scenario instead drives live /v1 servers, as a
// named, checked-in mix: its arrival schedule issues real render GETs
// and /check POSTs open-loop, each measured from its scheduled arrival
// (no coordinated omission), and an inline spec is PUT to every server
// first, replacing any older document under the model's name. This is
// the repository's one command-line load driver; the report embeds the
// full latency histograms.
//
// Examples:
//
//	fleetsim -config examples/fleetsim/commit-churn.json
//	fleetsim -config examples/fleetsim/commit-churn.json -out report.json \
//	    -golden examples/fleetsim/golden/commit-churn.json
//	fleetsim -config examples/fleetsim/commit-churn.json -url http://localhost:8091
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"asagen/internal/fleetsim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	var (
		config   = fs.String("config", "", "scenario config `file` (required)")
		out      = fs.String("out", "", "write the canonical JSON report to this file")
		golden   = fs.String("golden", "", "compare the report byte-for-byte against this checked-in report")
		url      = fs.String("url", "", "drive live /v1 servers instead of the simulation (comma-separated list round-robins arrivals)")
		workers  = fs.Int("workers", runtime.NumCPU(), "bound on concurrently executing shards (simulation) or in-flight requests (live)")
		duration = fs.Int64("duration-ms", 0, "override the scenario's duration_ms")
		seed     = fs.Int64("seed", 0, "override the scenario's seed (live with seed 0 keeps the config's)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *config == "" {
		return fmt.Errorf("missing -config (scenario file)")
	}
	sc, err := fleetsim.Load(*config)
	if err != nil {
		return err
	}
	if *duration > 0 {
		sc.DurationMS = *duration
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var rep *fleetsim.Report
	if *url != "" {
		rep, err = fleetsim.Live(ctx, sc, *url, *workers)
	} else {
		rep, err = fleetsim.Run(ctx, sc, *workers)
	}
	if err != nil {
		return err
	}
	wall := time.Since(start)

	fmt.Fprintf(stdout, "fleetsim %s: scenario %s, model %s r=%d, %d instances, %d shards, seed %d (wall %v)\n",
		rep.Harness, sc.Name, rep.Machine.Model, rep.Machine.Param, sc.Instances, sc.Shards, sc.Seed, wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "fleet    born %d  finished %d  truncated %d  dead-end %d\n",
		rep.Fleet.Born, rep.Fleet.Finished, rep.Fleet.Truncated, rep.Fleet.DeadEnd)
	fmt.Fprintf(stdout, "events   %d judged, %.2f/s over %dms; violations %d expected, %d unexpected\n",
		rep.Events, rep.ThroughputPerSec, rep.VirtualMS, rep.ExpectedViolations, rep.UnexpectedViolations)
	fmt.Fprintf(stdout, "latency  delivery p50 %v p95 %v p99 %v; completion p50 %v p95 %v p99 %v\n",
		time.Duration(rep.Delivery.P50Ns), time.Duration(rep.Delivery.P95Ns), time.Duration(rep.Delivery.P99Ns),
		time.Duration(rep.Completion.P50Ns), time.Duration(rep.Completion.P95Ns), time.Duration(rep.Completion.P99Ns))

	data, err := rep.MarshalCanonical()
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	if *golden != "" {
		want, err := os.ReadFile(*golden)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, want) {
			return fmt.Errorf("report drifted from golden %s (regenerate with -out after verifying the change is intended)", *golden)
		}
		fmt.Fprintf(stdout, "report matches golden %s\n", *golden)
	}
	if rep.UnexpectedViolations > 0 {
		return fmt.Errorf("%d unexpected violations: generated machine and interpreter disagree", rep.UnexpectedViolations)
	}
	return nil
}
