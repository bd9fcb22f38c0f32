package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the closed loop's width: the callers are nodes that wait for
// their machine, and a third client on two shared cores would measure the
// scheduler.
const clients = 2

// key is one distinct op of a workload: a request and the answer it must
// get. Latency is tracked per key.
type key struct {
	name        string
	method      string
	path        string // path and query
	body        []byte
	ifNoneMatch string

	status int
	// wantBody is the exact response body; nil means "not compared"
	// (registration echoes) unless digest is set.
	wantBody []byte
	// digest is the checked-in sha256 of the body. The first response is
	// hashed against it and against its ETag, then kept as wantBody, so
	// later laps compare bytes instead of hashing again.
	digest string
	// wantETag is the ETag header the response must carry; for digest keys
	// it is derived from the digest.
	wantETag string
	// contains must occur in the body (the edited action after a PUT).
	contains string

	mu sync.Mutex // guards wantBody while a digest key is primed
}

// workload is a fixed, seeded lap: units are handed to the clients in
// order, the ops of one unit run in sequence on one connection.
type workload struct {
	name string
	keys []*key
	// units[i] lists key indexes.
	units [][]int32
	// freshServer restarts the server before every lap (first-use path).
	freshServer bool
	// predict checks exact server counters. For single-server workloads
	// delta spans all measured laps; for fresh-server ones it is one lap's.
	predict func(delta counters, laps int) error

	keyOf []int32 // op position → key index, units flattened
	start []int   // unit → first op position
}

func (w *workload) finish() {
	w.start = make([]int, len(w.units))
	for i, u := range w.units {
		w.start[i] = len(w.keyOf)
		w.keyOf = append(w.keyOf, u...)
	}
}

// conn is one keep-alive connection: its own transport, so the two
// clients never share or exceed one socket each.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

// do performs one op and returns its latency (request start to last body
// byte), the body size, and why the answer was wrong, if it was.
// Verification runs after the clock stops.
func (c *conn) do(base string, k *key) (time.Duration, int, error) {
	var body io.Reader
	if k.body != nil {
		body = bytes.NewReader(k.body)
	}
	req, err := http.NewRequest(k.method, base+k.path, body)
	if err != nil {
		return 0, 0, err
	}
	if k.ifNoneMatch != "" {
		req.Header.Set("If-None-Match", k.ifNoneMatch)
	}
	begin := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	took := time.Since(begin)
	if err != nil {
		return took, c.buf.Len(), fmt.Errorf("read body: %w", err)
	}
	got := c.buf.Bytes()
	if resp.StatusCode != k.status {
		return took, len(got), fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, k.status, got)
	}
	etag := resp.Header.Get("ETag")
	if k.digest != "" {
		k.mu.Lock()
		want := k.wantBody
		k.mu.Unlock()
		if want == nil {
			sum := sha256.Sum256(got)
			if hex.EncodeToString(sum[:]) != k.digest {
				return took, len(got), fmt.Errorf("body hashes to %x, manifest says %s", sum, k.digest)
			}
			k.mu.Lock()
			k.wantBody = append([]byte(nil), got...)
			k.mu.Unlock()
		} else if !bytes.Equal(got, want) {
			return took, len(got), fmt.Errorf("body differs from the verified first response at byte %d", firstDiff(got, want))
		}
	} else if k.wantBody != nil && !bytes.Equal(got, k.wantBody) {
		return took, len(got), fmt.Errorf("body differs from the expected one at byte %d (got %d bytes, want %d)",
			firstDiff(got, k.wantBody), len(got), len(k.wantBody))
	}
	if k.wantETag != "" && etag != k.wantETag {
		return took, len(got), fmt.Errorf("ETag %s, want %s", etag, k.wantETag)
	}
	if k.contains != "" && !bytes.Contains(got, []byte(k.contains)) {
		return took, len(got), fmt.Errorf("body lacks %q", k.contains)
	}
	return took, len(got), nil
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// run is one workload's state across set-up and measured laps.
type run struct {
	w      *workload
	binary string
	srv    *server
	ref    *reference
	conns  [clients]*conn
	mu     sync.Mutex // guards failed and failures

	laps      []lap
	attempted int64
	failed    int64
	bytes     int64
	failures  []string // first few, for the report
	setups    []float64
	clientCPU time.Duration
	ctxSw     int64
	delta     counters // summed over measured laps
	spent     time.Duration
	// refNS holds the reference load's time before each measured lap.
	refNS []float64
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// lap runs the op list once against r.srv with both clients and returns
// its wall time and per-position latencies.
func (r *run) lap() lap {
	w := r.w
	l := lap{latNS: make([]int64, len(w.keyOf))}
	var next atomic.Int64
	var bytesIn atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for _, c := range r.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				u := int(next.Add(1)) - 1
				if u >= len(w.units) {
					return
				}
				for i, ki := range w.units[u] {
					k := w.keys[ki]
					took, n, err := c.do(r.srv.base, k)
					l.latNS[w.start[u]+i] = int64(took)
					bytesIn.Add(int64(n))
					if err != nil {
						r.fail("%s: %s: %v", w.name, k.name, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	l.wallNS = int64(time.Since(begin))
	r.attempted += int64(len(w.keyOf))
	r.bytes += bytesIn.Load()
	return l
}

// setup is what a first user pays: fresh server, readiness, one full lap
// (which also primes and hash-verifies every digest key).
func (r *run) setup(build func() (*workload, error)) error {
	if r.srv != nil {
		r.srv.kill() // the previous set-up's server
	}
	begin := time.Now()
	w, err := build()
	if err != nil {
		return err
	}
	w.finish()
	for i := range r.conns {
		r.conns[i] = newConn()
	}
	r.w = w
	if r.srv, err = spawnServer(r.binary); err != nil {
		return err
	}
	r.lap()
	r.setups = append(r.setups, time.Since(begin).Seconds())
	return nil
}

// measuredLap wraps lap with the server-side readings; for fresh-server
// workloads it also swaps the server in and out, untimed.
func (r *run) measuredLap() error {
	begin := time.Now()
	defer func() { r.spent += time.Since(begin) }()
	w := r.w
	var err error
	if w.freshServer {
		r.srv.kill()
		for _, c := range r.conns {
			c.client.CloseIdleConnections()
		}
		if r.srv, err = spawnServer(r.binary); err != nil {
			return err
		}
	}
	ref, err := r.ref.sample()
	if err != nil {
		return err
	}
	r.refNS = append(r.refNS, float64(ref))
	before, err := r.srv.counters()
	if err != nil {
		return err
	}
	sw0, err := ctxSwitches(r.srv.pid)
	if err != nil {
		return err
	}
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	cpu0, err := cpuTicks(r.srv.pid)
	if err != nil {
		return err
	}
	l := r.lap()
	cpu1, err := cpuTicks(r.srv.pid)
	if err != nil {
		return err
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	l.cpuTicks = cpu1 - cpu0
	r.clientCPU += rusageCPU(ru1) - rusageCPU(ru0)
	sw1, err := ctxSwitches(r.srv.pid)
	if err != nil {
		return err
	}
	r.ctxSw += sw1 - sw0
	after, err := r.srv.counters()
	if err != nil {
		return err
	}
	if l.rssKB, err = peakRSSKB(r.srv.pid); err != nil {
		return err
	}
	d := after.minus(before)
	if w.freshServer {
		if err := w.predict(d, 1); err != nil {
			r.fail("%s: lap %d: %v", w.name, len(r.laps), err)
		}
	}
	r.delta = r.delta.plus(d)
	r.laps = append(r.laps, l)
	return nil
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is one workload's numbers, end-to-end and live per-layer.
type result struct {
	workload  string
	attempted int64
	failed    int64
	failures  []string
	laps      int
	metrics   map[string]float64
}

// Metric units, by name; every metric the harness prints is listed here.
var units = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "lat_geomean_us": "us", "cpu_us_per_op": "us", "peak_rss_mb": "MB",
	"fail_ratio":          "ratio",
	"client.speed_factor": "ratio", "client.p50_us": "us", "client.p99_us": "us", "client.cpu_us_per_op": "us", "client.lap_spread": "ratio",
	"server.generations": "count", "server.incremental": "count", "server.render_misses": "count",
	"server.hot_hits": "count", "server.bytes_per_op": "B", "server.ctx_switches_per_op": "count",
}

// endToEnd names the metrics a user of the system sees, in print order.
var endToEnd = []string{"setup_s", "ops_per_s", "lat_geomean_us", "cpu_us_per_op", "peak_rss_mb"}

// liveLayer names the per-layer metrics that come from the live run.
var liveLayer = []string{
	"client.speed_factor", "client.p50_us", "client.p99_us", "client.cpu_us_per_op", "client.lap_spread",
	"server.generations", "server.incremental", "server.render_misses", "server.hot_hits",
	"server.bytes_per_op", "server.ctx_switches_per_op",
}

func (r *run) result() result {
	w := r.w
	if !w.freshServer && len(r.laps) > 0 {
		if err := w.predict(r.delta, len(r.laps)); err != nil {
			r.fail("%s: %v", w.name, err)
		}
	}
	s := summarize(r.laps, w.keyOf, len(w.keys))
	laps := float64(len(r.laps))
	measuredOps := laps * float64(len(w.keyOf))

	// Single-server workloads report the high-water mark the whole run
	// reached; a server that lives one lap reports its typical lap.
	rss := make([]float64, len(r.laps))
	for i, l := range r.laps {
		rss[i] = float64(l.rssKB)
	}
	peakKB := rss[len(rss)-1]
	if w.freshServer {
		peakKB = median(rss)
	}

	// Timings are reported in reference time (see reference.go).
	speed := speedFactor(r.refNS)
	m := map[string]float64{
		"setup_s":        median(r.setups) / speed,
		"ops_per_s":      s.opsPerS * speed,
		"lat_geomean_us": s.latGeomeanUS / speed,
		"cpu_us_per_op":  s.cpuUSPerOp / speed,
		"peak_rss_mb":    peakKB / 1024,
		"fail_ratio":     float64(r.failed) / float64(r.attempted),

		"client.speed_factor":  speed,
		"client.p50_us":        s.p50US / speed,
		"client.p99_us":        s.p99US / speed,
		"client.cpu_us_per_op": float64(r.clientCPU.Microseconds()) / measuredOps / speed,
		"client.lap_spread":    s.lapSpread,

		"server.generations":         float64(r.delta.generations) / laps,
		"server.incremental":         float64(r.delta.incremental) / laps,
		"server.render_misses":       float64(r.delta.renderMisses) / laps,
		"server.hot_hits":            float64(r.delta.hotHits) / laps,
		"server.bytes_per_op":        float64(r.bytes) / float64(r.attempted),
		"server.ctx_switches_per_op": float64(r.ctxSw) / measuredOps,
	}
	return result{workload: w.name, attempted: r.attempted, failed: r.failed,
		failures: r.failures, laps: len(r.laps), metrics: m}
}

// minLaps keeps the quartiles meaningful when -seconds is tiny.
const minLaps = 8

// setups is how often a run sets a workload up; setup_s is their median,
// so that it is first-use work and not one spawn's jitter.
const setups = 5

// runLive sets every named workload up (nSetups times each, against fresh
// servers) and then runs their laps round-robin until each has measured for `seconds`. A
// slow spell of the machine then costs every workload a few laps instead
// of one workload all of its laps.
func runLive(binary string, names []string, seed int64, seconds float64, nSetups int) ([]result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer ref.srv.kill()
	runs := make([]*run, len(names))
	for i, name := range names {
		build, ok := workloads[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames(), ", "))
		}
		r := &run{binary: binary, ref: ref}
		runs[i] = r
		for n := 0; n < nSetups; n++ {
			if err := r.setup(func() (*workload, error) { return build(seed, golden) }); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
		}
	}
	budget := time.Duration(seconds * float64(time.Second))
	for active := true; active; {
		active = false
		for _, r := range runs {
			if r.spent >= budget && len(r.laps) >= minLaps {
				continue
			}
			active = true
			if err := r.measuredLap(); err != nil {
				return nil, fmt.Errorf("%s: lap %d: %w", r.w.name, len(r.laps), err)
			}
		}
	}
	results := make([]result, len(runs))
	for i, r := range runs {
		results[i] = r.result()
		r.srv.kill()
	}
	return results, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
