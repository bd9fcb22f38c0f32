package fleetsim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"asagen/internal/core"
	"asagen/internal/latency"
	"asagen/internal/trace"
)

// Request classes Live's arrivals report to the load engine.
const (
	classRender = iota
	classCheck
)

// Live points the scenario's arrival process at a running /v1 server:
// the simulation's own arrival schedule drives latency.Drive open-loop.
// Each arrival issues a render GET — or, every CheckEvery-th arrival,
// POSTs a generated conforming trace to the /check route — and latency is
// measured from the scheduled arrival time (no coordinated omission).
// baseURL may be a comma-separated list of servers — the nodes of a
// `fsmgen serve -cluster` ring, say; renders and checks each rotate
// through their own URL list, so every (server, format) render and every
// server's /check sees traffic. The report shares the simulation's shape:
// request outcomes are classified with the trace verdict vocabulary, any
// non-conforming outcome counts as an unexpected violation, and the
// latency histograms carry the wall-clock distribution. Live reports are
// measurements, not reproducible artifacts.
func Live(ctx context.Context, sc Scenario, baseURL string, workers int) (*Report, error) {
	if err := sc.Normalize(); err != nil {
		return nil, err
	}
	// The machine is generated locally from the same registry (and inline
	// spec) the server uses, both to describe it in the report and to
	// derive a conforming trace for the /check mix.
	machine, err := BuildMachine(ctx, &sc)
	if err != nil {
		return nil, err
	}
	bases := latency.Targets(baseURL)
	if len(bases) == 0 {
		return nil, fmt.Errorf("fleetsim: empty live target list %q", baseURL)
	}
	client := &http.Client{Timeout: time.Minute}
	if len(sc.Spec) > 0 {
		// Registrations are per serving instance, so an inline spec must
		// land on every target. A clustered server takes no registry write
		// (405), so an inline-spec scenario needs standalone targets.
		for _, base := range bases {
			if err := putSpec(ctx, client, base, sc.Model, sc.Spec); err != nil {
				return nil, err
			}
		}
	}

	// Render URLs are ordered base-fastest, so the render rotation cycles
	// across the servers before repeating a format. Both lists name the
	// machine's parameter, never a scenario's 0 for the default: the server
	// refuses an explicit ?r= ≤ 0.
	renderURLs := make([]string, 0, len(sc.Formats)*len(bases))
	for _, format := range sc.Formats {
		for _, base := range bases {
			renderURLs = append(renderURLs,
				fmt.Sprintf("%s/v1/models/%s/artifacts/%s?r=%d", base, sc.Model, format, machine.Parameter))
		}
	}
	checkURLs := make([]string, len(bases))
	for i, base := range bases {
		checkURLs[i] = fmt.Sprintf("%s/v1/models/%s/check?r=%d&tolerance=%d", base, sc.Model, machine.Parameter, sc.Tolerance)
	}
	checkTrace := ConformingTrace(machine, sc.Seed, 128)

	// Fail fast on a broken mix before committing to the run.
	for _, u := range renderURLs {
		if err := latency.Fetch(ctx, client, u); err != nil {
			return nil, fmt.Errorf("fleetsim: probe %s: %w", u, err)
		}
	}

	// Arrival i is the k-th check when it is a check and the (i-k)-th
	// render otherwise, k = i/CheckEvery being the checks before it.
	start := time.Now()
	load := latency.Drive(ctx, workers, classCheck+1, arrivalTimes(&sc), 0, sc.Duration(), func(ctx context.Context, i int) (int, error) {
		if sc.CheckEvery == 0 {
			return classRender, latency.Fetch(ctx, client, renderURLs[i%len(renderURLs)])
		}
		k := i / sc.CheckEvery
		if i%sc.CheckEvery == sc.CheckEvery-1 {
			return classCheck, postCheck(ctx, client, checkURLs[k%len(checkURLs)], checkTrace)
		}
		return classRender, latency.Fetch(ctx, client, renderURLs[(i-k)%len(renderURLs)])
	})
	elapsed := time.Since(start)

	// A request is an instance: born when issued, finished when a check
	// conforms, and any failure is an unexpected violation.
	rep := &Report{
		Harness:             "live",
		Scenario:            sc,
		Machine:             machineInfo(machine),
		Verdicts:            &trace.Tally{},
		DeliveryHistogram:   &latency.Histogram{},
		CompletionHistogram: &load.OK[classCheck],
	}
	for c := range load.OK {
		rep.DeliveryHistogram.Merge(&load.OK[c])
		rep.DeliveryHistogram.Merge(&load.Failed[c])
		rep.UnexpectedViolations += load.Failed[c].Count()
	}
	rep.Events = rep.DeliveryHistogram.Count()
	checks := rep.CompletionHistogram.Count()
	for kind, n := range map[trace.Kind]int64{
		trace.KindAccepted:  rep.Events - rep.UnexpectedViolations,
		trace.KindFinished:  checks,
		trace.KindViolation: rep.UnexpectedViolations,
	} {
		for ; n > 0; n-- {
			rep.Verdicts.Add(kind)
		}
	}
	rep.Fleet = FleetInfo{Instances: sc.Instances, Born: int(rep.Events), Finished: int(checks),
		Truncated: sc.Instances - int(rep.Events)}
	rep.finish(elapsed)
	return rep, ctx.Err()
}

// postCheck streams the trace to the /check route and requires the SSE
// stream to end in a conforming summary.
func postCheck(ctx context.Context, client *http.Client, url string, trace []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(trace))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	if !bytes.Contains(body, []byte("event: summary")) {
		return fmt.Errorf("check stream ended without a summary event")
	}
	if !bytes.Contains(body, []byte(`"violations":0`)) {
		return fmt.Errorf("conforming trace reported violations")
	}
	return nil
}

// putSpec registers the scenario's inline spec document on the live
// server under the scenario's model name, replacing whatever document the
// server held there: the run must render and check the machine the report
// describes, never an older one. Only 201 (registered) and 200 (replaced)
// succeed.
func putSpec(ctx context.Context, client *http.Client, base, model string, doc []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, base+"/v1/models/"+model, bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleetsim: put inline spec %s: status %s", model, resp.Status)
	}
	return nil
}

// ConformingTrace walks the machine with a seeded random applicable-only
// policy and renders the walk as a JSON Lines trace: by construction the
// /check route judges it conforming. The walk stops at the finish state
// or after maxLines deliveries.
func ConformingTrace(machine *core.StateMachine, seed int64, maxLines int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	table, _ := machine.Table() // a reference outside States is position -1, where the walk stops
	for at, line := table.Start, 0; at >= 0 && !machine.States[at].Final && line < maxLines; line++ {
		applicable := table.Out(at) // in message order
		if len(applicable) == 0 {
			break
		}
		e := applicable[rng.Intn(len(applicable))]
		at = int(e.To)
		fmt.Fprintf(&buf, "{\"msg\":%q}\n", machine.Messages[e.Msg])
	}
	return buf.Bytes()
}
