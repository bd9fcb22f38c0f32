package fleetsim

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/models"
	"asagen/internal/trace"
)

// smallScenario is a fast scenario for unit tests.
func smallScenario() Scenario {
	return Scenario{
		Name:       "test",
		Model:      "commit",
		Param:      4,
		Instances:  200,
		Shards:     4,
		Seed:       1,
		DurationMS: 5000,
		Arrival:    Arrival{Process: ArrivalPoisson, RatePerSec: 200},
		Faults:     Faults{DropRate: 0.02, DuplicateRate: 0.05, InvalidRate: 0.02, UnknownRate: 0.01},
		Tolerance:  1,
	}
}

// TestRunDeterministic proves the report contract: the same scenario
// produces byte-identical reports across runs and across worker counts —
// concurrency bounds execution, never outcome.
func TestRunDeterministic(t *testing.T) {
	sc := smallScenario()
	var reports [][]byte
	for _, workers := range []int{1, 4, 16} {
		rep, err := Run(context.Background(), sc, workers)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		data, err := rep.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	for i := 1; i < len(reports); i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("report %d differs from report 0: worker count leaked into the report", i)
		}
	}
}

// TestRunSeedSensitivity: a different seed must change the outcome (the
// PRNG is actually wired through).
func TestRunSeedSensitivity(t *testing.T) {
	sc := smallScenario()
	rep1, err := Run(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 2
	rep2, err := Run(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := rep1.MarshalCanonical()
	d2, _ := rep2.MarshalCanonical()
	if bytes.Equal(d1, d2) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestRunAccounting checks the lifecycle and verdict invariants that hold
// for every scenario: instances are fully accounted for, every judged
// event carries exactly one delivery verdict, and no legitimate delivery
// was rejected.
func TestRunAccounting(t *testing.T) {
	rep, err := Run(context.Background(), smallScenario(), 4)
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Fleet
	if f.Born != f.Finished+f.Truncated+f.DeadEnd {
		t.Errorf("born %d != finished %d + truncated %d + dead-end %d",
			f.Born, f.Finished, f.Truncated, f.DeadEnd)
	}
	if f.Born > f.Instances {
		t.Errorf("born %d exceeds fleet size %d", f.Born, f.Instances)
	}
	v := rep.Verdicts
	deliveries := v.Count(trace.KindAccepted) + v.Count(trace.KindIgnored) +
		v.Count(trace.KindSkipped) + v.Count(trace.KindViolation)
	if deliveries != rep.Events {
		t.Errorf("verdict deliveries %d != events %d", deliveries, rep.Events)
	}
	if got := v.Count(trace.KindViolation); got != rep.ExpectedViolations+rep.UnexpectedViolations {
		t.Errorf("violation verdicts %d != expected %d + unexpected %d",
			got, rep.ExpectedViolations, rep.UnexpectedViolations)
	}
	if rep.UnexpectedViolations != 0 {
		t.Errorf("unexpected violations %d: machine and interpreter disagree", rep.UnexpectedViolations)
	}
	if v.Count(trace.KindFinished) != int64(f.Finished) {
		t.Errorf("finished verdicts %d != finished instances %d", v.Count(trace.KindFinished), f.Finished)
	}
	if rep.CompletionHistogram.Count() != int64(f.Finished) {
		t.Errorf("completion samples %d != finished instances %d",
			rep.CompletionHistogram.Count(), f.Finished)
	}
}

// TestCommitChurnScenarioFile is the acceptance check: the checked-in
// commit-churn scenario drives at least 1000 instances and two runs of the
// same seed produce byte-identical reports.
func TestCommitChurnScenarioFile(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "examples", "fleetsim", "commit-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Run(context.Background(), sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Fleet.Born < 1000 {
		t.Fatalf("commit-churn born %d instances, want >= 1000", rep1.Fleet.Born)
	}
	if rep1.UnexpectedViolations != 0 {
		t.Fatalf("commit-churn produced %d unexpected violations", rep1.UnexpectedViolations)
	}
	rep2, err := Run(context.Background(), sc, 2)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := rep1.MarshalCanonical()
	d2, _ := rep2.MarshalCanonical()
	if !bytes.Equal(d1, d2) {
		t.Fatal("same-seed runs produced different report bytes")
	}
}

// TestGoldenReports replays every checked-in scenario and compares the
// report byte-for-byte against its golden — the in-repo form of the CI
// drift gate.
func TestGoldenReports(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "fleetsim")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := Load(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(context.Background(), sc, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.MarshalCanonical()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(dir, "golden", e.Name()))
			if err != nil {
				t.Fatalf("missing golden (regenerate with `go run ./cmd/fleetsim -config %s -out %s`): %v",
					filepath.Join(dir, e.Name()), filepath.Join(dir, "golden", e.Name()), err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from golden %s.json; regenerate if intended", name)
			}
		})
		ran++
	}
	if ran < 6 {
		t.Fatalf("scenario matrix has %d scenarios, want at least the 6 registry models", ran)
	}
}

// TestScenarioValidation exercises the config diagnostics.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no model", func(s *Scenario) { s.Model = "" }, "needs a model"},
		{"zero instances", func(s *Scenario) { s.Instances = 0 }, "instances"},
		{"bad duration", func(s *Scenario) { s.DurationMS = 0 }, "duration_ms"},
		{"bad process", func(s *Scenario) { s.Arrival.Process = "burst" }, "arrival process"},
		{"bad rate", func(s *Scenario) { s.Arrival.RatePerSec = 0 }, "rate_per_sec"},
		{"bad think", func(s *Scenario) { s.Think = Interval{MinMS: 10, MaxMS: 5} }, "think range"},
		{"bad fault", func(s *Scenario) { s.Faults.DropRate = 1.5 }, "drop_rate"},
		{"fault sum", func(s *Scenario) { s.Faults.DropRate = 0.5; s.Faults.InvalidRate = 0.5 }, "sum"},
		{"negative tolerance", func(s *Scenario) { s.Tolerance = -1 }, "tolerance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := smallScenario()
			tc.mut(&sc)
			err := sc.Normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Normalize() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	t.Run("unknown model", func(t *testing.T) {
		sc := smallScenario()
		sc.Model = "no-such-model"
		if _, err := Run(context.Background(), sc, 1); err == nil {
			t.Fatal("Run accepted an unknown model")
		}
	})
	t.Run("unknown config key", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.json")
		os.WriteFile(path, []byte(`{"model":"commit","instances":1,"duration_ms":1,"arival":{}}`), 0o644)
		if _, err := Load(path); err == nil {
			t.Fatal("Load accepted a misspelled config key")
		}
	})
}

// TestInlineSpecScenario runs the checked-in leader-lease scenario, whose
// model exists only as an inline spec document.
func TestInlineSpecScenario(t *testing.T) {
	sc, err := Load(filepath.Join("..", "..", "examples", "fleetsim", "leader-lease.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := models.Get(sc.Model); err == nil {
		t.Fatalf("model %q unexpectedly in the built-in registry; the test wants an inline-spec-only model", sc.Model)
	}
	rep, err := Run(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.Born == 0 || rep.UnexpectedViolations != 0 {
		t.Fatalf("inline-spec run: born %d, unexpected violations %d", rep.Fleet.Born, rep.UnexpectedViolations)
	}
}

// TestConformingTrace feeds the generated trace back through the trace
// monitor: it must conform by construction.
func TestConformingTrace(t *testing.T) {
	sc := smallScenario()
	machine, err := BuildMachine(context.Background(), &sc)
	if err != nil {
		t.Fatal(err)
	}
	data := ConformingTrace(machine, 99, 128)
	if len(data) == 0 {
		t.Fatal("empty conforming trace for commit")
	}
	mon, err := trace.NewMonitor(trace.WithTarget("m", machine))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mon.Run(context.Background(), trace.NewJSONLDecoder(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Conforming() {
		t.Fatalf("generated trace violates its own machine: %+v", rep)
	}
}

// TestLive drives the live mode against an in-process /v1 server: render
// GETs and /check POSTs both succeed, and the report carries the same
// accounting shape as the simulation. The scenario leaves the parameter
// to the model's default, and the server refuses an explicit ?r=0: the
// requests must name the default's value.
func TestLive(t *testing.T) {
	ts := httptest.NewServer(api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone()))))
	defer ts.Close()

	sc := smallScenario()
	sc.Param = 0
	sc.Instances = 30
	sc.Arrival = Arrival{Process: ArrivalConstant, RatePerSec: 500}
	sc.DurationMS = 10000
	sc.CheckEvery = 3
	sc.Formats = []string{"text", "dot"}
	rep, err := Live(context.Background(), sc, ts.URL, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Harness != "live" {
		t.Fatalf("harness = %q, want live", rep.Harness)
	}
	if rep.Fleet.Born != 30 {
		t.Fatalf("live born %d, want 30", rep.Fleet.Born)
	}
	if rep.UnexpectedViolations != 0 {
		t.Fatalf("live run reported %d unexpected violations", rep.UnexpectedViolations)
	}
	if rep.Fleet.Finished == 0 {
		t.Fatal("no /check requests completed")
	}
	if got := rep.Verdicts.Count(trace.KindAccepted); got != int64(rep.Fleet.Born) {
		t.Fatalf("accepted %d, want every scheduled request (%d)", got, rep.Fleet.Born)
	}
	if rep.Events != int64(rep.Fleet.Born) {
		t.Fatalf("events %d != born %d", rep.Events, rep.Fleet.Born)
	}
}

// TestLiveRotatesRendersAndChecksApart: with two servers, four formats and
// check_every 8, every (server, format) render and both servers' /check
// are requested in the measured window, each within one of its fair
// share. Indexing both rotations by the arrival index — which also picks
// check versus render — sent every check to one server and never rendered
// the other's last format.
func TestLiveRotatesRendersAndChecksApart(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	var bases []string
	for _, name := range []string{"A", "B"} {
		h := api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone())))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			counts[name+" "+r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		bases = append(bases, ts.URL)
	}

	sc := smallScenario()
	sc.Instances = 50
	sc.Arrival = Arrival{Process: ArrivalConstant, RatePerSec: 1000}
	sc.DurationMS = 10000
	sc.Formats = []string{"text", "dot", "xml", "doc"}
	rep, err := Live(context.Background(), sc, strings.Join(bases, ","), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.Born != 50 || rep.UnexpectedViolations != 0 {
		t.Fatalf("born %d, unexpected %d", rep.Fleet.Born, rep.UnexpectedViolations)
	}
	const checks = 50 / 8 // arrivals 7, 15, …, 47
	var renders []int
	for _, server := range []string{"A", "B"} {
		for _, format := range sc.Formats {
			// The probe renders every URL once before the window opens.
			renders = append(renders, counts[server+" /v1/models/commit/artifacts/"+format]-1)
		}
		if got := counts[server+" /v1/models/commit/check"]; got != checks/2 {
			t.Errorf("server %s: %d checks, want %d", server, got, checks/2)
		}
	}
	for i, n := range renders {
		if share := (50 - checks) / len(renders); n != share && n != share+1 {
			t.Errorf("render URL %d requested %d times, want %d or %d (all: %v)", i, n, share, share+1, renders)
		}
	}
}

// TestLiveBornMatchesRun: live mode issues its requests on the
// simulation's arrival schedule, cut at the duration the same way, so a
// Poisson scenario whose duration ends mid-fleet is born to the same size
// in both harnesses.
func TestLiveBornMatchesRun(t *testing.T) {
	ts := httptest.NewServer(api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone()))))
	defer ts.Close()

	sc := smallScenario()
	sc.Instances = 60
	sc.Arrival = Arrival{Process: ArrivalPoisson, RatePerSec: 500}
	sc.DurationMS = 60
	sim, err := Run(context.Background(), sc, 4)
	if err != nil {
		t.Fatal(err)
	}
	live, err := Live(context.Background(), sc, ts.URL, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Fleet.Born == 0 || sim.Fleet.Born == sc.Instances {
		t.Fatalf("sim born %d of %d: the duration should cut the fleet", sim.Fleet.Born, sc.Instances)
	}
	if live.Fleet.Born != sim.Fleet.Born {
		t.Fatalf("live born %d, sim born %d", live.Fleet.Born, sim.Fleet.Born)
	}
}

// TestLiveInlineSpec registers the scenario's inline spec on the live
// server before driving it.
func TestLiveInlineSpec(t *testing.T) {
	ts := httptest.NewServer(api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone()))))
	defer ts.Close()

	sc, err := Load(filepath.Join("..", "..", "examples", "fleetsim", "leader-lease.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc.Instances = 12
	sc.Arrival = Arrival{Process: ArrivalConstant, RatePerSec: 500}
	sc.DurationMS = 10000
	rep, err := Live(context.Background(), sc, ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fleet.Born != 12 || rep.UnexpectedViolations != 0 {
		t.Fatalf("live inline-spec run: born %d, unexpected %d", rep.Fleet.Born, rep.UnexpectedViolations)
	}
}

// TestLiveReplacesAStaleSpec: a server that already holds an older
// document under the scenario's model name is given the scenario's own,
// so the run renders and checks the machine its report describes.
func TestLiveReplacesAStaleSpec(t *testing.T) {
	ts := httptest.NewServer(api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone()))))
	defer ts.Close()

	sc, err := Load(filepath.Join("..", "..", "examples", "fleetsim", "leader-lease.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Description string `json:"description"`
	}
	if err := json.Unmarshal(sc.Spec, &want); err != nil {
		t.Fatal(err)
	}
	stale := bytes.Replace(sc.Spec, []byte(want.Description), []byte("an older lease protocol"), 1)
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", bytes.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pre-register the stale document: %s", resp.Status)
	}

	sc.Instances = 12
	sc.Arrival = Arrival{Process: ArrivalConstant, RatePerSec: 500}
	sc.DurationMS = 10000
	if _, err := Live(context.Background(), sc, ts.URL, 2); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/models/" + sc.Model)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Description string `json:"description"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Description != want.Description {
		t.Fatalf("server describes %q after the run, want the scenario's %q", got.Description, want.Description)
	}
}

// TestLiveProbeFailsFastOnBadMix: a format the server does not know fails
// the probe before the measurement window opens, so no arrival is sent.
func TestLiveProbeFailsFastOnBadMix(t *testing.T) {
	h := api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone())))
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	sc := smallScenario()
	sc.Formats = []string{"no-such-format"}
	_, err := Live(context.Background(), sc, ts.URL, 2)
	if err == nil || !strings.Contains(err.Error(), "probe") {
		t.Fatalf("err = %v, want a probe failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"GET /v1/models/commit/artifacts/no-such-format"}; !slices.Equal(seen, want) {
		t.Fatalf("server saw %v, want only the probe %v", seen, want)
	}
}
