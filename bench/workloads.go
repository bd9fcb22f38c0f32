package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"asagen"
)

// workloads maps a workload name to its seeded builder. The seed decides
// order, names, labels and walks — never how much work a lap holds, so
// runs on different seeds measure the same thing.
var workloads = map[string]func(seed int64, g *goldenFile) (*workload, error){
	"warm-read":    warmRead,
	"cold-sweep":   coldSweep,
	"model-churn":  modelChurn,
	"check-stream": checkStream,
}

// allWorkloads is the order `-workload all` interleaves them in.
var allWorkloads = []string{"warm-read", "cold-sweep", "model-churn", "check-stream"}

func artifactPath(model string, param int, format string) string {
	return fmt.Sprintf("/v1/models/%s/artifacts/%s?r=%d", model, format, param)
}

// sweepKey is the GET of one sweep artefact, verified against the
// manifest digest and against its own ETag.
func sweepKey(g *goldenFile, pt sweepPoint, format string) (*key, error) {
	digest, ok := g.Digests[digestKey(pt.model, pt.param, format)]
	if !ok {
		return nil, fmt.Errorf("golden/digests.json has no entry for %s; run -update-golden", digestKey(pt.model, pt.param, format))
	}
	return &key{
		name:     fmt.Sprintf("GET %s r=%d %s", pt.model, pt.param, format),
		method:   "GET",
		path:     artifactPath(pt.model, pt.param, format),
		status:   200,
		digest:   digest,
		wantETag: `"` + digest + `"`,
	}, nil
}

// warmPasses sizes a warm-read lap at about half a second on two cores,
// long enough that a 10 ms CPU tick is under 2 % of it.
const warmPasses = 20

// warmRead is §4.2's reuse path: every artefact is already memoised, so
// api and net/http do the work and core, render, spec and trace do none.
// Each artefact is read two ways, a full 200 and an If-None-Match 304.
func warmRead(seed int64, g *goldenFile) (*workload, error) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	w := &workload{name: "warm-read"}
	for _, pt := range sweep(client) {
		if pt.param > 13 {
			continue
		}
		for _, format := range client.Formats() {
			k, err := sweepKey(g, pt, format)
			if err != nil {
				return nil, err
			}
			w.keys = append(w.keys, k, &key{
				name: "304 " + k.name, method: "GET", path: k.path, ifNoneMatch: k.wantETag,
				status: 304, wantBody: []byte{}, wantETag: k.wantETag,
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for pass := 0; pass < warmPasses; pass++ {
		for _, ki := range rng.Perm(len(w.keys)) {
			w.units = append(w.units, []int32{int32(ki)})
		}
	}
	ops := int64(len(w.units))
	w.predict = func(d counters, laps int) error {
		if d.generations != 0 || d.renderMisses != 0 {
			return fmt.Errorf("warm laps did %d generations and %d render misses, want none", d.generations, d.renderMisses)
		}
		if want := ops * int64(laps); d.hotHits != want {
			return fmt.Errorf("%d hot hits, want %d", d.hotHits, want)
		}
		return nil
	}
	return w, nil
}

// coldSweep is §4.2's first-use path: a fresh server per lap renders the
// whole declared sweep once, Table 1's r = 4…46 included, so generation,
// EFSM generalisation and rendering are nearly all of it. A unit is one
// (model, param) in all seven formats, so each machine is generated by
// exactly one request and never awaited by the other client. Units run
// largest parameter first (the seed orders equals) so the two clients
// finish together whatever the seed.
func coldSweep(seed int64, g *goldenFile) (*workload, error) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	points := sweep(client)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	sort.SliceStable(points, func(i, j int) bool { return points[i].param > points[j].param })

	w := &workload{name: "cold-sweep", freshServer: true}
	for _, pt := range points {
		var unit []int32
		for _, format := range client.Formats() {
			k, err := sweepKey(g, pt, format)
			if err != nil {
				return nil, err
			}
			unit = append(unit, int32(len(w.keys)))
			w.keys = append(w.keys, k)
		}
		w.units = append(w.units, unit)
	}
	machines, artefacts := int64(len(points)), int64(len(w.keys))
	w.predict = func(d counters, laps int) error {
		if d.generations != machines || d.renderMisses != artefacts || d.hotHits != 0 {
			return fmt.Errorf("%d generations, %d render misses, %d hot hits; want %d, %d, 0",
				d.generations, d.renderMisses, d.hotHits, machines, artefacts)
		}
		return nil
	}
	return w, nil
}

// churnPerFamily sizes a model-churn lap: this many variants of each of
// the three spec families.
const churnPerFamily = 16

// modelChurn is the write side of the registry and memo stack that
// warm-read only reads: spec parse, compile and diff, incremental
// regeneration, purge and epoch. Each variant lives under its own name
// for seven ops: register, render cold, edit one rule, render again
// (incrementally), unregister.
func modelChurn(seed int64, g *goldenFile) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	ref := asagen.NewClient(asagen.WithIsolatedRegistry())
	w := &workload{name: "model-churn"}
	add := func(k *key) int32 {
		w.keys = append(w.keys, k)
		return int32(len(w.keys) - 1)
	}
	// render answers from the in-process SDK what the server must return.
	render := func(name, format string) (*key, error) {
		res, err := ref.Render(context.Background(), asagen.Request{Model: name, Format: format})
		if err != nil {
			return nil, fmt.Errorf("reference render %s %s: %w", name, format, err)
		}
		return &key{
			name: fmt.Sprintf("GET %s %s", name, format), method: "GET",
			path:   fmt.Sprintf("/v1/models/%s/artifacts/%s", name, format),
			status: 200, wantBody: res.Data, wantETag: `"` + res.ContentHash + `"`,
		}, nil
	}
	variants := 0
	for i := 0; i < churnPerFamily; i++ {
		for _, family := range specFamilies {
			name := fmt.Sprintf("bench-%s-%d", family.name, i)
			tag := fmt.Sprintf("%08x", rng.Uint32())
			base, edited := family.build(name, tag, rng.Int63())
			baseJSON, err := base.JSON()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			editedJSON, err := edited.JSON()
			if err != nil {
				return nil, fmt.Errorf("%s (edited): %w", name, err)
			}
			unit := []int32{add(&key{name: "POST " + name, method: "POST", path: "/v1/models", body: baseJSON, status: 201})}
			if err := ref.RegisterModel(base); err != nil {
				return nil, err
			}
			for _, format := range []string{"text", "go"} {
				k, err := render(name, format)
				if err != nil {
					return nil, err
				}
				unit = append(unit, add(k))
			}
			unit = append(unit, add(&key{name: "PUT " + name, method: "PUT", path: "/v1/models/" + name, body: editedJSON, status: 200}))
			if err := ref.UpdateModel(edited); err != nil {
				return nil, err
			}
			for _, format := range []string{"text", "go"} {
				k, err := render(name, format)
				if err != nil {
					return nil, err
				}
				k.name += " (edited)"
				k.contains = "->" + family.editAction + "-" + tag
				unit = append(unit, add(k))
			}
			unit = append(unit, add(&key{name: "DELETE " + name, method: "DELETE", path: "/v1/models/" + name, status: 204, wantBody: []byte{}}))
			if err := ref.UnregisterModel(name); err != nil {
				return nil, err
			}
			w.units = append(w.units, unit)
			variants++
		}
	}
	if st := ref.Stats(); st.IncrementalGenerations != int64(variants) {
		return nil, fmt.Errorf("reference client regenerated %d of %d edits incrementally; the edits are meant to be compatible",
			st.IncrementalGenerations, variants)
	}
	w.predict = func(d counters, laps int) error {
		// Per variant: one cold generation, one incremental one, and a
		// render miss for each of the four GETs.
		n := int64(variants * laps)
		if d.incremental != n || d.generations != 2*n || d.renderMisses != 4*n {
			return fmt.Errorf("%d incremental of %d generations, %d render misses; want %d of %d, %d",
				d.incremental, d.generations, d.renderMisses, n, 2*n, 4*n)
		}
		return nil
	}
	return w, nil
}

// checkPasses sizes a check-stream lap.
const checkPasses = 4

// checkStream is the monitoring use of generated machines: the trace
// decoders, runtime delivery and the per-event SSE write and flush do the
// work, core does none. The same walk is sent as JSONL and as a text log
// through the regex front end, so the two decoders are measured side by
// side; a violating and a tolerated trace cover the other verdict paths.
func checkStream(seed int64, g *goldenFile) (*workload, error) {
	w := &workload{name: "check-stream"}
	rng := rand.New(rand.NewSource(seed))
	for _, target := range checkTargets {
		keys, err := checkKeys(target.model, target.param, rng.Int63())
		if err != nil {
			return nil, err
		}
		w.keys = append(w.keys, keys...)
	}
	for pass := 0; pass < checkPasses; pass++ {
		for _, ki := range rng.Perm(len(w.keys)) {
			w.units = append(w.units, []int32{int32(ki)})
		}
	}
	w.predict = func(d counters, laps int) error {
		if d.generations != 0 {
			return fmt.Errorf("check laps did %d generations, want none", d.generations)
		}
		return nil
	}
	return w, nil
}
