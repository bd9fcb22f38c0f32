// Command loadgen drives the /v1 artifact route of a generation server
// and reports tail latency: the end-to-end serve-path number beside the
// per-layer benchmarks, run through the load engine internal/latency
// shares with fleetsim's live mode.
//
// It runs in one of two modes. Closed loop (the default) keeps -c
// workers saturated: each worker issues its next request the moment the
// previous response is drained, so the measured distribution reflects
// the server under full back-pressure. Open loop (-rate) schedules
// arrivals on a fixed interval regardless of completions and measures
// each request from its scheduled arrival time, so queueing delay under
// overload is charged to the latency distribution instead of silently
// thinning the arrival stream (no coordinated omission).
//
// The request mix is the cross product of -models × -formats, cycled
// round-robin. With -url it targets one or more live servers — a
// comma-separated list round-robins arrivals across the fleet, e.g. the
// nodes of a `fsmgen serve -cluster` ring; without it, it boots an
// in-process server over its own
// pipeline — with -store persisting artefacts to disk — so a single
// binary can measure the full HTTP stack without external orchestration.
//
// Output is a p50/p95/p99 row per run on stdout plus, with -out, a JSON
// report embedding the full latency histogram for offline merging and
// CI artifact upload.
//
// Examples:
//
//	loadgen -duration 10s -c 16
//	loadgen -url http://localhost:8091 -models commit,termination -formats text,dot
//	loadgen -rate 500 -duration 30s -out latency.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/latency"
	"asagen/internal/models"
	"asagen/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the JSON artifact written by -out: run parameters, outcome
// counters and the full latency histogram.
type report struct {
	Target     string             `json:"target"`
	Mode       string             `json:"mode"` // "closed" or "open"
	Concurrent int                `json:"concurrency"`
	RatePerSec float64            `json:"rate_per_sec,omitempty"`
	DurationNs int64              `json:"duration_ns"`
	Requests   int64              `json:"requests"`
	Errors     int64              `json:"errors"`
	Throughput float64            `json:"throughput_rps"`
	P50Ns      int64              `json:"p50_ns"`
	P95Ns      int64              `json:"p95_ns"`
	P99Ns      int64              `json:"p99_ns"`
	MaxNs      int64              `json:"max_ns"`
	Latency    *latency.Histogram `json:"latency"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		url         = fs.String("url", "", "comma-separated base URLs of running servers, arrivals round-robin across them (empty = boot an in-process server)")
		duration    = fs.Duration("duration", 5*time.Second, "measurement duration")
		concurrency = fs.Int("c", 8, "concurrent workers")
		rate        = fs.Float64("rate", 0, "open-loop arrival rate per second (0 = closed loop)")
		modelsFlag  = fs.String("models", "commit,termination", "comma-separated model mix")
		formats     = fs.String("formats", "text", "comma-separated format mix")
		param       = fs.Int("r", 0, "model parameter (0 = each model's default)")
		warmup      = fs.Duration("warmup", 500*time.Millisecond, "unrecorded warm-up period")
		out         = fs.String("out", "", "write the JSON report (with the full histogram) to this file")
		storeDir    = fs.String("store", "", "artifact store directory for the in-process server (ignored with -url)")
		maxErrRate  = fs.Float64("max-error-rate", 0.01, "fail when errors/requests exceeds this fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("concurrency must be at least 1")
	}

	bases := latency.Targets(*url)
	if len(bases) == 0 {
		opts := []artifact.Option{artifact.WithRegistry(models.Default().Clone())}
		if *storeDir != "" {
			s, err := store.Open(*storeDir)
			if err != nil {
				return fmt.Errorf("open artifact store: %w", err)
			}
			defer s.Close()
			opts = append(opts, artifact.WithStore(s))
		}
		ts := httptest.NewServer(api.NewHandler(artifact.New(opts...)))
		defer ts.Close()
		bases = []string{ts.URL}
	}

	// Targets are ordered base-fastest — every model×format path expands
	// to one target per base, consecutively — so the workers' i%len cycle
	// round-robins arrivals across the servers.
	var targets []string
	for _, model := range latency.Targets(*modelsFlag) {
		for _, format := range latency.Targets(*formats) {
			path := "/v1/models/" + model + "/artifacts/" + format
			if *param > 0 {
				path += fmt.Sprintf("?r=%d", *param)
			}
			for _, base := range bases {
				targets = append(targets, base+path)
			}
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("empty model×format mix")
	}

	ctx := context.Background()
	client := &http.Client{Timeout: time.Minute}
	// One request per target outside the measurement window verifies the
	// mix before committing to a run: a mistyped model name fails fast
	// instead of producing a histogram of 404 latencies.
	for _, t := range targets {
		if err := latency.Fetch(ctx, client, t); err != nil {
			return fmt.Errorf("probe %s: %w", t, err)
		}
	}

	rep := report{Target: strings.Join(bases, ","), Mode: "closed", Concurrent: *concurrency}
	var due []time.Duration // nil: closed loop
	if *rate > 0 {
		rep.Mode, rep.RatePerSec = "open", *rate
		interval := max(time.Duration(float64(time.Second) / *rate), time.Nanosecond)
		for t := time.Duration(0); t < *warmup+*duration; t += interval {
			due = append(due, t)
		}
	}
	load := latency.Drive(ctx, *concurrency, 1, due, *warmup, *duration, func(ctx context.Context, i int) (int, error) {
		return 0, latency.Fetch(ctx, client, targets[i%len(targets)])
	})
	hist, errs := &load.OK[0], load.Failed[0].Count()

	rep.DurationNs = int64(*duration)
	rep.Requests = hist.Count()
	rep.Errors = errs
	rep.Throughput = float64(hist.Count()) / duration.Seconds()
	rep.P50Ns = int64(hist.Quantile(0.50))
	rep.P95Ns = int64(hist.Quantile(0.95))
	rep.P99Ns = int64(hist.Quantile(0.99))
	rep.MaxNs = int64(hist.Max())
	rep.Latency = hist

	fmt.Fprintf(stdout, "loadgen: %s %s, %d workers, %d targets\n", rep.Mode, duration, *concurrency, len(targets))
	fmt.Fprintf(stdout, "requests %d  errors %d  throughput %.1f req/s\n", rep.Requests, rep.Errors, rep.Throughput)
	fmt.Fprintf(stdout, "latency  p50 %v  p95 %v  p99 %v  max %v\n",
		hist.Quantile(0.50), hist.Quantile(0.95), hist.Quantile(0.99), hist.Max())

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}

	if rep.Requests == 0 {
		return fmt.Errorf("no requests completed")
	}
	if frac := float64(errs) / float64(rep.Requests+errs); frac > *maxErrRate {
		return fmt.Errorf("error rate %.2f%% exceeds %.2f%%", frac*100, *maxErrRate*100)
	}
	return nil
}
