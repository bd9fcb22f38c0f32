package latency

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Load is what one Drive pass recorded, indexed by the class each
// request's do returned: the latency of the requests that succeeded and of
// those that failed.
type Load struct {
	OK, Failed []Histogram
}

// Drive runs one load pass of warmup+run over a fixed pool of workers,
// each calling do(ctx, i) for the next request index i, and records every
// request that started after the warm-up under the class in [0, classes)
// do returned.
//
// With due nil the loop is closed: a worker issues its next request when
// the previous one returns, until the deadline, and latency is measured
// from issue. Otherwise the loop is open: request i is due at
// start+due[i] (due must not decrease, and requests due at or after the
// deadline are not issued), and latency is measured from that instant, so
// a request that waits for a free worker is charged its wait rather than
// silently thinning the arrival stream (no coordinated omission).
//
// Cancelling ctx stops the pass; a request still in flight then is not
// recorded. Drive returns once every worker has.
func Drive(ctx context.Context, workers, classes int, due []time.Duration, warmup, run time.Duration,
	do func(ctx context.Context, i int) (class int, err error)) *Load {
	parts := make([]Load, max(workers, 1))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		part := &parts[w]
		part.OK, part.Failed = make([]Histogram, classes), make([]Histogram, classes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				at := time.Now()
				if due != nil {
					if i >= len(due) || due[i] >= warmup+run {
						return
					}
					at = start.Add(due[i])
					select {
					case <-time.After(time.Until(at)):
					case <-ctx.Done():
						return
					}
				} else if at.Sub(start) >= warmup+run {
					return
				}
				class, err := do(ctx, i)
				d := time.Since(at)
				hs := part.OK
				if err != nil {
					hs = part.Failed
				}
				if ctx.Err() == nil && at.Sub(start) >= warmup {
					hs[class].Record(d)
				}
			}
		}()
	}
	wg.Wait()
	load := parts[0]
	for _, part := range parts[1:] {
		for c := range classes {
			load.OK[c].Merge(&part.OK[c])
			load.Failed[c].Merge(&part.Failed[c])
		}
	}
	return &load
}

// Fetch issues one GET and drains the body, failing on any non-200.
func Fetch(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// Targets splits a comma-separated target list — base URLs, or the models
// and formats a driver crosses with them — trimming whitespace and
// trailing slashes and dropping empty items.
func Targets(list string) []string {
	var bases []string
	for _, b := range strings.Split(list, ",") {
		if b = strings.TrimSuffix(strings.TrimSpace(b), "/"); b != "" {
			bases = append(bases, b)
		}
	}
	return bases
}
