package artifact

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goldenPath is the benchmark's checked-in manifest, which `bench
// -update-golden` writes: what every sweep artefact hashes to, and the
// paper's Table 1. This package only reads it.
var goldenPath = filepath.Join("..", "..", "bench", "golden", "digests.json")

// table1 is the paper's Table 1, final-state column, by replication factor.
var table1 = map[int]int{4: 33, 7: 85, 13: 261, 25: 901, 46: 2945}

// TestGoldenDigests is the artefact contract: every <model>/<param>/<format>
// key of the golden manifest renders through one Pipeline to its recorded
// sha256, under the ETag that names it; a second render of each key is a hot
// hit on the first's bytes; and the manifest's Table 1 is the paper's, which
// the commit family members the sweep rendered reproduce.
func TestGoldenDigests(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Table1  map[string]int    `json:"table1_final_states"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(golden.Table1) != len(table1) {
		t.Errorf("the manifest's Table 1 has %d rows, the paper %d", len(golden.Table1), len(table1))
	}
	for r, want := range table1 {
		if got := golden.Table1[strconv.Itoa(r)]; got != want {
			t.Errorf("the manifest's Table 1 says r=%d has %d final states, the paper %d", r, got, want)
		}
	}

	ctx := context.Background()
	p := New()
	keys := slices.Sorted(maps.Keys(golden.Digests))
	if len(keys) != 182 {
		t.Fatalf("the manifest has %d digests, want 182 (26 members × 7 formats)", len(keys))
	}
	reqs := make([]Request, len(keys))
	first := make([]Result, len(keys))
	for i, key := range keys {
		parts := strings.Split(key, "/")
		param, err := strconv.Atoi(parts[1])
		if len(parts) != 3 || err != nil {
			t.Fatalf("malformed manifest key %q", key)
		}
		reqs[i] = Request{Model: parts[0], Param: param, Format: parts[2]}
		res := p.Render(ctx, reqs[i])
		if res.Err != nil {
			t.Fatalf("%s: %v", key, res.Err)
		}
		sum := sha256.Sum256(res.Artifact.Data)
		if got := hex.EncodeToString(sum[:]); got != golden.Digests[key] {
			t.Errorf("%s: sha256 %s, the manifest says %s", key, got, golden.Digests[key])
		}
		if res.Sum != sum || res.ETag != `"`+golden.Digests[key]+`"` {
			t.Errorf("%s: sum or ETag %s does not name the rendered bytes", key, res.ETag)
		}
		first[i] = res
	}
	for i, req := range reqs {
		before := p.Stats().HotHits
		res := p.Render(ctx, req)
		if res.Err != nil || p.Stats().HotHits != before+1 || &res.Artifact.Data[0] != &first[i].Artifact.Data[0] || res.ETag != first[i].ETag {
			t.Errorf("%s: the second render was not a hot hit on the first's bytes", keys[i])
		}
	}

	for r, want := range table1 {
		machine, _, _, err := p.Machine(ctx, "commit", r)
		if err != nil {
			t.Fatal(err)
		}
		if got := machine.Stats.FinalStates; got != want {
			t.Errorf("commit r=%d has %d final states, Table 1 says %d", r, got, want)
		}
	}
	if st := p.Stats().Machine; st.Generations != int64(len(keys)/7) {
		t.Errorf("generations = %d, want one per family member: Table 1's are among the sweep's", st.Generations)
	}
}

// TestWarmRenderAllocatesNothing: a repeat render — at an explicit
// parameter or the default, in a machine format or an EFSM one — is a
// member-tier and a render-tier hit and allocates nothing.
func TestWarmRenderAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	p := New()
	for _, req := range []Request{
		{Model: "commit", Param: 7, Format: "text"},
		{Model: "commit", Format: "text"},
		{Model: "commit", Param: 7, Format: "efsm"},
		{Model: "commit", Format: "efsm"},
	} {
		if res := p.Render(ctx, req); res.Err != nil {
			t.Fatal(res.Err)
		}
		if n := testing.AllocsPerRun(100, func() { p.Render(ctx, req) }); n != 0 {
			t.Errorf("%+v: a warm render allocates %v times, want 0", req, n)
		}
	}
}

// TestConcurrentFirstRendersMatchGolden: the first renders of one member,
// all seven formats at once on a new Pipeline, race to compute the
// machine's transition table and its EFSM; every one of them is still the
// manifest's bytes. Run it with -race.
func TestConcurrentFirstRendersMatchGolden(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	const model, param, member = "commit", 13, "commit/13/"
	var formats []string
	for key := range golden.Digests {
		if format, ok := strings.CutPrefix(key, member); ok {
			formats = append(formats, format)
		}
	}
	if len(formats) != 7 {
		t.Fatalf("the manifest has %d formats of %s, want 7", len(formats), member)
	}
	p := New()
	results := make([]Result, len(formats))
	var wg sync.WaitGroup
	for i, format := range formats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = p.Render(context.Background(), Request{Model: model, Param: param, Format: format})
		}()
	}
	wg.Wait()
	for i, res := range results {
		key := member + formats[i]
		if res.Err != nil {
			t.Errorf("%s: %v", key, res.Err)
			continue
		}
		if sum := sha256.Sum256(res.Artifact.Data); hex.EncodeToString(sum[:]) != golden.Digests[key] {
			t.Errorf("%s: the bytes are not the manifest's", key)
		}
	}
}
