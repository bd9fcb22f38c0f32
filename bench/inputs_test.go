package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"asagen/internal/core"
	"asagen/internal/models"
)

// digest folds everything a workload sends and expects into one hash.
func digest(t *testing.T, build func(int64, *goldenFile) (*workload, error), seed int64) [sha256.Size]byte {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w, err := build(seed, g)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, k := range w.keys {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%s\x00%s\x00%s\x00", k.name, k.method, k.path, k.ifNoneMatch, k.status, k.digest, k.wantETag, k.contains)
		h.Write(k.body)
		h.Write(k.wantBody)
	}
	fmt.Fprint(h, w.units)
	return [sha256.Size]byte(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"warm-read", "cold-sweep", "check-stream"} {
		build := workloads[name]
		a, b, other := digest(t, build, 7), digest(t, build, 7), digest(t, build, 8)
		if a != b {
			t.Errorf("%s: seed 7 built two different op lists", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 built the same op list", name)
		}
	}
}

// model-churn's specs are compared directly: building the whole workload
// renders every variant in-process, which is a second of its own.
func TestSameSeedSameSpecs(t *testing.T) {
	for _, family := range specFamilies {
		doc := func(tag string, seed int64) (string, string) {
			base, edited := family.build("bench-"+family.name, tag, seed)
			b, err := base.JSON()
			if err != nil {
				t.Fatal(err)
			}
			e, err := edited.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return string(b), string(e)
		}
		base, edited := doc("0badcafe", 7)
		again, _ := doc("0badcafe", 7)
		other, _ := doc("deadbeef", 8)
		if base != again {
			t.Errorf("%s: the same tag and seed built two different specs", family.name)
		}
		if base == other {
			t.Errorf("%s: another tag and seed built the same spec", family.name)
		}
		action := family.editAction + "-0badcafe" // "->" is \u003e in JSON
		if strings.Contains(base, action) || strings.Count(edited, action) != 1 {
			t.Errorf("%s: the edit should add %q to exactly one rule", family.name, action)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Digests) != 182 {
		t.Fatalf("golden/digests.json has %d digests, want 182 (26 sweep points × 7 formats)", len(g.Digests))
	}
	warm, err := warmRead(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.keys) != 294 || len(warm.units) != 294*warmPasses {
		t.Errorf("warm-read: %d keys in %d ops, want 294 in %d", len(warm.keys), len(warm.units), 294*warmPasses)
	}
	cold, err := coldSweep(1, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.keys) != 182 || len(cold.units) != 26 {
		t.Errorf("cold-sweep: %d keys in %d units, want 182 in 26", len(cold.keys), len(cold.units))
	}
	// Largest family members first, whatever the seed: the two clients
	// then finish together.
	for i := 1; i < len(cold.units); i++ {
		prev, cur := cold.keys[cold.units[i-1][0]], cold.keys[cold.units[i][0]]
		var pp, cp int
		fmt.Sscanf(prev.path[strings.Index(prev.path, "?r=")+3:], "%d", &pp)
		fmt.Sscanf(cur.path[strings.Index(cur.path, "?r=")+3:], "%d", &cp)
		if cp > pp {
			t.Fatalf("cold-sweep unit %d has r=%d after r=%d", i, cp, pp)
		}
	}
}

func TestTable1ThroughTheSDK(t *testing.T) {
	if err := verifyTable1(); err != nil {
		t.Fatal(err)
	}
}

// The expected SSE stream is written from the walk alone; here it is
// cross-checked on a machine small enough to read.
func TestWalkAndExpectedStream(t *testing.T) {
	entry, err := models.Get("commit")
	if err != nil {
		t.Fatal(err)
	}
	abstract, err := entry.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Generate(context.Background(), abstract)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := walk(m, 3, 50, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	cur, rejected := m.Start, 0
	for i, s := range steps {
		tr := cur.Transitions[s.msg]
		if s.rejected {
			rejected++
			if tr != nil || s.state != cur.Name {
				t.Fatalf("line %d: %s marked rejected in %s, but the table has a transition", i+1, s.msg, cur.Name)
			}
			continue
		}
		if tr == nil || tr.Target.Name != s.state || tr.Target.Final {
			t.Fatalf("line %d: %s from %s does not lead to %s", i+1, s.msg, cur.Name, s.state)
		}
		cur = tr.Target
	}
	if len(steps) != 50 || rejected != 2 || !steps[19].rejected {
		t.Fatalf("walk has %d lines, %d rejected, line 20 rejected=%v; want 50, 2, true", len(steps), rejected, steps[19].rejected)
	}

	strict := expectedStream(steps, 0)
	if n := bytes.Count(strict, []byte("event: ")); n != 21 { // 19 accepted, the violation, the summary
		t.Errorf("without tolerance the stream has %d events, want 21", n)
	}
	if !bytes.Contains(strict, []byte(`"violations":1,"first_violation":20,"finished":false`)) {
		t.Errorf("summary does not place the violation at line 20:\n%s", strict[len(strict)-300:])
	}
	tolerant := expectedStream(steps, 2)
	if n := bytes.Count(tolerant, []byte("event: ignored\n")); n != 2 {
		t.Errorf("with tolerance 2 the stream has %d ignored events, want 2", n)
	}
	if !bytes.Contains(tolerant, []byte(`{"lines":50,"events":50,"accepted":48,"ignored":2,"skipped":0,"violations":0,"finished":false,"final_state":"`+cur.Name+`"}`)) {
		t.Errorf("tolerant summary is wrong:\n%s", tolerant[len(tolerant)-300:])
	}
	if got := bytes.Count(jsonl(steps), []byte("\n")); got != 50 {
		t.Errorf("jsonl trace has %d lines, want 50", got)
	}
	if got := bytes.Count(textLog(steps, 3), []byte("\n")); got != 50 {
		t.Errorf("text log has %d lines, want 50", got)
	}
}
