package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/render"
	rt "asagen/internal/runtime"
	"asagen/internal/spec"
	"asagen/internal/store"
	"asagen/internal/termination"
	"asagen/internal/trace"

	"asagen"
)

// The traced pass: in-process, single-threaded, it times calls into each
// layer's public functions and records a span per call. Every timing is
// the lower quartile of its repeats. The numbers say where an end-to-end
// metric's time goes; they carry no regression bound.

// layerReps is how often a timing is repeated unless it is time-boxed.
const layerReps = 15

// span is one timed call. Spans of one op share Op; Parent 0 marks a root.
// An op has two roots: the whole op through api.Handler.ServeHTTP, and
// "ledger.decomposed", the same op performed step by step, whose children
// are the steps.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int
}

func (t *tracer) op() int { t.ops++; return t.ops }

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// time runs f as a span and returns its duration.
func (t *tracer) time(op, parent int, name string, f func()) time.Duration {
	id := t.begin(op, parent, name)
	f()
	return t.end(id)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nullWriter is a ResponseWriter that keeps the status and headers and
// counts the body instead of storing it, so a handler timing is the
// handler's and not a recorder's memcpy.
type nullWriter struct {
	header http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header { return w.header }
func (w *nullWriter) WriteHeader(s int)   { w.status = s }
func (w *nullWriter) Flush()              {}
func (w *nullWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(b)
	return len(b), nil
}

// serve runs one request through the handler and checks the status.
func serve(h http.Handler, w *nullWriter, r *http.Request, want int) {
	clear(w.header)
	w.status, w.n = 0, 0
	h.ServeHTTP(w, r)
	if w.status != want {
		die(1, "traced pass: %s %s answered %d, want %d", r.Method, r.URL, w.status, want)
	}
}

func request(method, path string, body []byte) *http.Request {
	r, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		die(1, "traced pass: %v", err)
	}
	return r
}

// reps times f `n` times and returns the lower quartile in nanoseconds.
func reps(n int, f func()) float64 {
	ns := make([]float64, n)
	for i := range ns {
		begin := time.Now()
		f()
		ns[i] = float64(time.Since(begin))
	}
	return lowerQuartile(ns)
}

// mallocs counts heap allocations made by f.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func must[T any](v T, err error) T {
	if err != nil {
		die(1, "traced pass: %v", err)
	}
	return v
}

// layers is the pass's state: the metrics so far and the spans.
type layers struct {
	m      map[string]float64
	tr     tracer
	ctx    context.Context
	reg    *models.Registry
	points []sweepPoint
	warm   []sweepPoint // params ≤ 13, as in warm-read
}

func (l *layers) set(name, unit string, v float64) {
	l.m[name] = v
	units[name] = unit
}

// layerPass runs every group and writes the spans. budget bounds the
// time-boxed part (the cold sweep's four large family members).
func layerPass(binary string, seed int64, budget time.Duration) map[string]float64 {
	l := &layers{m: map[string]float64{}, ctx: context.Background(), reg: models.Default().Clone()}
	l.tr.epoch = time.Now()
	l.points = sweep(asagen.NewClient(asagen.WithIsolatedRegistry()))
	for _, pt := range l.points {
		if pt.param <= 13 {
			l.warm = append(l.warm, pt)
		}
	}
	p := artifact.New(artifact.WithRegistry(l.reg))
	l.warmGroup(p, binary)
	l.coldGroup(budget)
	l.churnGroup(p, seed)
	l.checkGroup(p, seed)
	l.storeGroup()
	if err := l.tr.write(filepath.Join(repoRoot, "bench", "out", "spans.jsonl")); err != nil {
		die(1, "write spans: %v", err)
	}
	return l.m
}

// warmGroup: the reuse path. What a warm GET costs inside the handler,
// how little of that is the memo, and what the socket adds on top.
func (l *layers) warmGroup(p *artifact.Pipeline, binary string) {
	h := api.NewHandler(p)
	w := &nullWriter{header: http.Header{}}
	var gets, revalidations []*http.Request
	var hot []artifact.Request
	for _, pt := range l.warm {
		for _, format := range render.Formats() {
			r := request("GET", artifactPath(pt.model, pt.param, format), nil)
			serve(h, w, r, 200)
			r304 := request("GET", artifactPath(pt.model, pt.param, format), nil)
			r304.Header.Set("If-None-Match", w.header.Get("ETag"))
			gets, revalidations = append(gets, r), append(revalidations, r304)
			hot = append(hot, artifact.Request{Model: pt.model, Param: pt.param, Format: format})
		}
	}
	n := float64(len(gets))
	getBatch := func() {
		for _, r := range gets {
			serve(h, w, r, 200)
		}
	}
	getNS := reps(layerReps, getBatch) / n
	l.set("api.warm_get_us", "us", getNS/1e3)
	l.set("api.warm_get_allocs", "count", mallocs(getBatch)/n)
	l.set("api.warm_304_us", "us", reps(layerReps, func() {
		for _, r := range revalidations {
			serve(h, w, r, 304)
		}
	})/n/1e3)

	const rounds = 20 // a hot hit is far below the clock's resolution
	hotBatch := func() {
		for i := 0; i < rounds; i++ {
			for _, req := range hot {
				if res := p.Render(l.ctx, req); res.Err != nil {
					die(1, "traced pass: %v", res.Err)
				}
			}
		}
	}
	hotNS := reps(layerReps, hotBatch) / n / rounds
	l.set("artifact.hot_hit_ns", "ns", hotNS)
	l.set("artifact.hot_hit_allocs", "count", mallocs(hotBatch)/n/rounds)
	// The handler's only measurable child on a warm GET is the memo hit;
	// the rest — routing, headers, the write — is api's own.
	l.set("ledger.coverage_warm", "ratio", hotNS/getNS)
	for i, r := range gets {
		op := l.tr.op()
		l.tr.time(op, 0, "api.warm_get", func() { serve(h, w, r, 200) })
		root := l.tr.begin(op, 0, "ledger.decomposed")
		l.tr.time(op, root, "artifact.hot_hit", func() { p.Render(l.ctx, hot[i]) })
		l.tr.end(root)
	}

	cache := p.Cache()
	type member struct {
		fp    core.Fingerprint
		model core.Model
	}
	var members []member
	for _, pt := range l.warm {
		m := must(must(l.reg.Get(pt.model)).Build(pt.param))
		members = append(members, member{cache.Fingerprint(m), m})
	}
	l.set("core.cache_hit_ns", "ns", reps(layerReps, func() {
		for i := 0; i < rounds; i++ {
			for _, mb := range members {
				must(cache.MachineForFingerprint(l.ctx, mb.fp, mb.model))
			}
		}
	})/float64(len(members))/rounds)

	// The same warm GETs over one keep-alive connection to the live
	// binary: what is left after the handler's share is the part of
	// warm-read that this repository's code cannot move.
	srv := must(spawnServer(binary))
	defer srv.kill()
	c := newConn()
	var keys []*key
	for _, r := range gets {
		keys = append(keys, &key{name: r.URL.String(), method: "GET", path: r.URL.String(), status: 200})
	}
	perKey := make([][]float64, len(keys))
	for pass := 0; pass <= layerReps; pass++ {
		for i, k := range keys {
			took, _, err := c.do(srv.base, k)
			if err != nil {
				die(1, "traced pass: live %s: %v", k.name, err)
			}
			if pass > 0 { // pass 0 warms the server
				perKey[i] = append(perKey[i], float64(took))
			}
		}
	}
	liveNS := 0.0
	for _, samples := range perKey {
		liveNS += lowerQuartile(samples)
	}
	l.set("net.warm_get_overhead_us", "us", (liveNS/n-getNS)/1e3)
}

// coldGroup: the first-use path, every sweep artefact once, whole and
// decomposed. Each (model, param) is repeated layerReps times, or as
// often as `budget` allows (at least three) for the four large commit
// members that dominate the sweep's time.
func (l *layers) coldGroup(budget time.Duration) {
	formats := render.Formats()
	sums := map[string]float64{} // step → Σ over the sweep of its lower-quartile time, ns
	var wholeNS, decomposedNS, states float64
	w := &nullWriter{header: http.Header{}}
	perPoint := budget / time.Duration(len(l.points))

	for _, pt := range l.points {
		var reqs []*http.Request
		for _, format := range formats {
			reqs = append(reqs, request("GET", artifactPath(pt.model, pt.param, format), nil))
		}
		steps := map[string][]float64{}
		var whole, decomposed []float64
		var reachable int

		begin := time.Now()
		for rep := 0; rep < layerReps && (rep < 3 || time.Since(begin) < perPoint); rep++ {
			h := api.NewHandler(artifact.New(artifact.WithRegistry(l.reg)))
			total := time.Duration(0)
			ops := make([]int, len(formats))
			for i, r := range reqs {
				ops[i] = l.tr.op()
				total += l.tr.time(ops[i], 0, "api.cold_get", func() { serve(h, w, r, 200) })
			}
			whole = append(whole, float64(total))

			// The same seven requests by hand, as Pipeline.render does
			// them: every request resolves the model; machine formats
			// build and fingerprint it, the first one generates; the EFSM
			// formats share one generalisation.
			var machine *core.StateMachine
			var efsm *core.EFSM
			step := map[string]time.Duration{}
			total = 0
			for i, format := range formats {
				root := l.tr.begin(ops[i], 0, "ledger.decomposed")
				child := func(name string, f func()) { step[name] += l.tr.time(ops[i], root, name, f) }
				var e models.Entry
				var art render.Artifact
				child("models.build", func() { e = must(l.reg.Get(pt.model)) })
				if render.IsEFSMFormat(format) {
					if efsm == nil {
						child("core.efsm", func() { efsm = must(e.EFSM(l.ctx, pt.param)) })
					}
					child("render."+format, func() { art = must(must(render.NewEFSM(format)).RenderEFSM(efsm)) })
				} else {
					var m core.Model
					child("models.build", func() { m = must(e.Build(pt.param)) })
					child("core.fingerprint", func() { core.FingerprintModel(m) })
					if machine == nil {
						child("core.generate", func() { machine = must(core.Generate(l.ctx, m)) })
					}
					child("render."+format, func() { art = must(must(render.New(format)).Render(machine)) })
				}
				child("artifact.hash", func() { sha256.Sum256(art.Data) })
				total += l.tr.end(root)
			}
			decomposed = append(decomposed, float64(total))
			for name, d := range step {
				steps[name] = append(steps[name], float64(d))
			}
			reachable = machine.Stats.ReachableStates
		}
		wholeNS += lowerQuartile(whole)
		decomposedNS += lowerQuartile(decomposed)
		states += float64(reachable)
		for name, ns := range steps {
			sums[name] += lowerQuartile(ns)
		}
	}

	children := 0.0
	for name, ns := range sums {
		children += ns
		l.set(name+"_us", "us", ns/1e3)
	}
	l.set("api.cold_get_us", "us", wholeNS/1e3)
	l.set("artifact.cold_self_us", "us", (wholeNS-children)/1e3)
	l.set("core.states_per_s", "1/s", states/(sums["core.generate"]/1e9))
	l.set("ledger.coverage_cold", "ratio", children/wholeNS)
	l.set("ledger.overhead_ratio", "ratio", decomposedNS/wholeNS)

	// Allocation counts and artefact sizes, one untimed pass.
	var genAllocs, renderAllocs, renderBytes float64
	for _, pt := range l.points {
		e := must(l.reg.Get(pt.model))
		var machine *core.StateMachine
		genAllocs += mallocs(func() { machine = must(core.Generate(l.ctx, must(e.Build(pt.param)))) })
		efsm := must(e.EFSM(l.ctx, pt.param))
		for _, format := range formats {
			renderAllocs += mallocs(func() {
				if render.IsEFSMFormat(format) {
					renderBytes += float64(len(must(must(render.NewEFSM(format)).RenderEFSM(efsm)).Data))
				} else {
					renderBytes += float64(len(must(must(render.New(format)).Render(machine)).Data))
				}
			})
		}
	}
	l.set("core.generate_allocs", "count", genAllocs)
	l.set("render.allocs", "count", renderAllocs)
	l.set("render.bytes", "B", renderBytes)
}

// churnGroup: the write side. Spec parse, compile and diff, generation of
// a spec-interpreted model against a hand-written one, incremental
// regeneration, and the registry routes and pipeline calls behind them,
// with the warm sweep resident in the pipeline's memos.
func (l *layers) churnGroup(p *artifact.Pipeline, seed int64) {
	type variant struct {
		name           string
		base, edited   []byte
		baseC, editedC *spec.Compiled
		delta          core.ModelDelta
	}
	var variants []variant
	for _, family := range specFamilies {
		name := "bench-" + family.name
		base, edited := family.build(name, "feedface", seed)
		v := variant{name: name, base: must(base.JSON()), edited: must(edited.JSON())}
		v.baseC, v.editedC = must(spec.ParseAndCompile(v.base)), must(spec.ParseAndCompile(v.edited))
		v.delta = spec.Diff(v.baseC.Doc(), v.editedC.Doc())
		if v.delta.IsFull() {
			die(1, "traced pass: %s: the edit is not a compatible one", name)
		}
		variants = append(variants, v)
	}
	l.set("spec.parse_us", "us", reps(layerReps, func() {
		for _, v := range variants {
			must(spec.Parse(v.base))
		}
	})/1e3)
	l.set("spec.compile_us", "us", reps(layerReps, func() {
		for _, v := range variants {
			must(spec.Compile(v.baseC.Doc()))
		}
	})/1e3)
	l.set("spec.diff_us", "us", reps(layerReps, func() {
		for _, v := range variants {
			spec.Diff(v.baseC.Doc(), v.editedC.Doc())
		}
	})/1e3)

	grid := variants[0]
	baseModel := must(grid.baseC.Model(gridParam))
	editedModel := must(grid.editedC.Model(gridParam))
	var old *core.StateMachine
	l.set("core.generate_spec_us", "us", reps(layerReps, func() { old = must(core.Generate(l.ctx, baseModel)) })/1e3)
	l.set("core.regenerate_us", "us", reps(layerReps, func() { must(core.Regenerate(l.ctx, old, editedModel, grid.delta)) })/1e3)

	// The termination scenario exists both as a hand-written adapter and
	// as a spec: the ratio is what interpretation costs.
	const k, batch = 8, 50
	adapter := must(termination.NewModel(k))
	interpreted := must(variants[1].baseC.Model(k))
	generate := func(m core.Model) func() {
		return func() {
			for i := 0; i < batch; i++ {
				must(core.Generate(l.ctx, m))
			}
		}
	}
	l.set("spec.generate_ratio", "ratio", reps(layerReps, generate(interpreted))/reps(layerReps, generate(adapter)))

	// Through the routes, then through the pipeline calls alone. Each
	// repeat registers, renders (so there is a machine to link or purge),
	// edits and unregisters all three variants.
	h := api.NewHandler(p)
	w := &nullWriter{header: http.Header{}}
	var register, update, unregister, updateModel, purgeModel []float64
	for rep := 0; rep < layerReps; rep++ {
		var reg, upd, unreg, um, pm time.Duration
		for _, v := range variants {
			get := request("GET", "/v1/models/"+v.name+"/artifacts/text", nil)
			op := l.tr.op()
			timed := func(name string, f func()) time.Duration { return l.tr.time(op, 0, name, f) }
			reg += timed("api.register", func() { serve(h, w, request("POST", "/v1/models", v.base), 201) })
			serve(h, w, get, 200)
			upd += timed("api.update", func() { serve(h, w, request("PUT", "/v1/models/"+v.name, v.edited), 200) })
			serve(h, w, get, 200)
			unreg += timed("api.unregister", func() { serve(h, w, request("DELETE", "/v1/models/"+v.name, nil), 204) })

			if err := l.reg.Add(v.baseC.Entry()); err != nil {
				die(1, "traced pass: %v", err)
			}
			render := func() {
				if res := p.Render(l.ctx, artifact.Request{Model: v.name, Format: "text"}); res.Err != nil {
					die(1, "traced pass: %v", res.Err)
				}
			}
			render()
			um += timed("artifact.update_model", func() { must(p.UpdateModel(v.editedC.Entry(), v.delta)) })
			render()
			l.reg.Remove(v.name)
			pm += timed("artifact.purge_model", func() { p.PurgeModel(v.name) })
		}
		register, update, unregister = append(register, float64(reg)), append(update, float64(upd)), append(unregister, float64(unreg))
		updateModel, purgeModel = append(updateModel, float64(um)), append(purgeModel, float64(pm))
	}
	l.set("api.register_us", "us", lowerQuartile(register)/1e3)
	l.set("api.update_us", "us", lowerQuartile(update)/1e3)
	l.set("api.unregister_us", "us", lowerQuartile(unregister)/1e3)
	l.set("artifact.update_model_us", "us", lowerQuartile(updateModel)/1e3)
	l.set("artifact.purge_model_us", "us", lowerQuartile(purgeModel)/1e3)
}

// checkGroup: the monitoring path on the commit r=13 machine. The two
// decoders side by side, delivery, verdict encoding, and the check route
// against the monitor alone — the difference is the per-event SSE framing
// and write (into a writer that drops it; the socket's share shows only
// in the live check-stream numbers).
func (l *layers) checkGroup(p *artifact.Pipeline, seed int64) {
	machine, _, _, err := p.Machine(l.ctx, "commit", 13)
	if err != nil {
		die(1, "traced pass: %v", err)
	}
	steps := must(walk(machine, seed, traceLines))
	asJSONL, asText := jsonl(steps), textLog(steps, seed)
	lines := float64(len(steps))

	drain := func(dec trace.Decoder) {
		for {
			if _, err := dec.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					die(1, "traced pass: %v", err)
				}
				return
			}
		}
	}
	l.set("trace.jsonl_lines_per_s", "1/s", lines/(reps(layerReps, func() { drain(trace.NewJSONLDecoder(bytes.NewReader(asJSONL))) })/1e9))
	l.set("trace.regex_lines_per_s", "1/s", lines/(reps(layerReps, func() { drain(trace.NewRegexDecoder(bytes.NewReader(asText), nil)) })/1e9))

	inst := must(rt.New(machine, nil))
	l.set("runtime.deliver_ns", "ns", reps(layerReps, func() {
		inst.Reset()
		for _, s := range steps {
			must(inst.Deliver(s.msg))
		}
	})/lines)

	var verdicts []trace.Verdict
	monitor := func(obs trace.ObserverFunc) func() {
		mon := must(trace.NewMonitor(trace.WithTarget("", machine), trace.WithObserver(obs)))
		return func() { must(mon.Run(l.ctx, trace.NewJSONLDecoder(bytes.NewReader(asJSONL)))) }
	}
	monitor(func(v trace.Verdict) bool { verdicts = append(verdicts, v); return true })()
	var buf []byte
	l.set("trace.verdict_json_ns", "ns", reps(layerReps, func() {
		for _, v := range verdicts {
			buf = v.AppendJSON(buf[:0])
		}
	})/float64(len(verdicts)))

	h := api.NewHandler(p)
	w := &nullWriter{header: http.Header{}}
	op := l.tr.op()
	checkNS := reps(layerReps, func() {
		l.tr.time(op, 0, "api.check", func() { serve(h, w, request("POST", "/v1/models/commit/check?r=13", asJSONL), 200) })
	})
	monitorNS := reps(layerReps, monitor(func(trace.Verdict) bool { return true }))
	l.set("api.check_us_per_line", "us", checkNS/lines/1e3)
	l.set("api.sse_write_ns_per_event", "ns", (checkNS-monitorNS)/float64(len(verdicts)))
}

// storeGroup: the on-disk store is not in any workload's request path
// (its fsync in a sandbox is not the program's), so these move no
// end-to-end metric today; they are the baseline for a later
// restart-warm workload.
func (l *layers) storeGroup() {
	dir := must(tempDir("store-*"))
	st := must(store.Open(dir))
	defer st.Close()
	art := must(must(render.New("text")).Render(must(core.Generate(l.ctx, must(must(l.reg.Get("commit")).Build(4))))))
	n := 0
	var puts, gets []float64
	for rep := 0; rep < layerReps; rep++ {
		// A distinct blob per repeat: an existing blob is not rewritten.
		data := append([]byte(fmt.Sprintf("%d\n", rep)), art.Data...)
		sum := sha256.Sum256(data)
		k := store.Key{Model: "bench", Param: n, Format: "text", Fingerprint: fmt.Sprintf("%064x", rep)}
		n++
		puts = append(puts, reps(1, func() {
			if err := st.Put(k, data, sum, art.MediaType, art.Ext); err != nil {
				die(1, "traced pass: store put: %v", err)
			}
		}))
		gets = append(gets, reps(1, func() {
			if _, _, _, _, ok := st.Get(k); !ok {
				die(1, "traced pass: store get missed")
			}
		}))
	}
	l.set("store.put_us", "us", lowerQuartile(puts)/1e3)
	l.set("store.get_us", "us", lowerQuartile(gets)/1e3)
}

// tracedRun is `-trace 1`: a shorter live run for the client.* and
// server.* numbers, then the in-process pass for every other layer.
func tracedRun(binary string, names []string, seed int64, seconds float64) int {
	results, err := runLive(binary, names, seed, seconds/2, 1)
	if err != nil {
		die(1, "%v", err)
	}
	m := layerPass(binary, seed, time.Duration(seconds/4*float64(time.Second)))
	if cov := m["ledger.coverage_cold"]; cov < 0.8 {
		fmt.Printf("ledger: the decomposition accounts for %.1f%% of a cold GET; %.1f%% is unaccounted\n", cov*100, (1-cov)*100)
	}
	return report(results, liveLayer, m)
}
