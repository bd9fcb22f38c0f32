package asagen_test

// The benchmark harness regenerates the paper's evaluation (see the
// experiment index in DESIGN.md):
//
//	E1  BenchmarkGenerateTable1       Table 1 generation times per (f, r)
//	E2  BenchmarkRenderText           Fig. 14 textual artefact
//	E3  BenchmarkRenderDot/XML        Fig. 15 diagram artefacts
//	E4  BenchmarkRenderGoSource       Fig. 16 source artefact
//	E5  BenchmarkGenerateEFSM         §5.3 nine-state EFSM generation
//	E6  BenchmarkDelivery*            FSM vs generic vs generated source vs
//	                                  EFSM execution cost (§4.4)
//	E7  BenchmarkCommitRound          full version-service commit round
//	E8  BenchmarkStoreRetrieve        storage quorum write + verified read
//	E9  BenchmarkChordLookup          routing hops vs overlay size
//	E11 BenchmarkPipelineStages       pruning/merging ablation
//	E18 BenchmarkColdSweep            a cold-sweep lap: 182 golden keys, fresh pipeline
import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asagen"
	"asagen/internal/api"
	"asagen/internal/artifact"
	"asagen/internal/chord"
	"asagen/internal/cluster"
	"asagen/internal/commit"
	"asagen/internal/commit/commitfsm4"
	"asagen/internal/core"
	"asagen/internal/fleetsim"
	"asagen/internal/models"
	"asagen/internal/render"
	"asagen/internal/runtime"
	"asagen/internal/simnet"
	"asagen/internal/spec"
	"asagen/internal/storage"
	"asagen/internal/trace"
	"asagen/internal/version"
)

// table1Rows are the published (f, r) pairs of Table 1.
var table1Rows = []struct{ f, r int }{
	{1, 4}, {2, 7}, {4, 13}, {8, 25}, {15, 46},
}

// BenchmarkGenerateTable1 regenerates Table 1's generation-time column: one
// sub-benchmark per published (f, r) pair. State counts are asserted so a
// regression in the model cannot hide in a timing table.
func BenchmarkGenerateTable1(b *testing.B) {
	finals := map[int]int{4: 33, 7: 85, 13: 261, 25: 901, 46: 2945}
	for _, row := range table1Rows {
		b.Run(fmt.Sprintf("f=%d/r=%d", row.f, row.r), func(b *testing.B) {
			model, err := commit.NewModel(row.r)
			if err != nil {
				b.Fatal(err)
			}
			var machine *core.StateMachine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machine, err = core.Generate(context.Background(), model, core.WithoutDescriptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			if machine.Stats.FinalStates != finals[row.r] {
				b.Fatalf("final states = %d, want %d", machine.Stats.FinalStates, finals[row.r])
			}
			b.ReportMetric(float64(machine.Stats.InitialStates), "initial-states")
			b.ReportMetric(float64(machine.Stats.FinalStates), "final-states")
		})
	}
}

// BenchmarkGenerateFrontier is the E12 scalability series: the
// reachability-first frontier exploration against the paper's literal
// full enumeration (core.GenerateEnumerated) at large commit parameters.
// Merging is disabled on both sides so the comparison isolates exploration
// cost; the reachable-state count is reported to make the visited-set
// reduction visible.
func BenchmarkGenerateFrontier(b *testing.B) {
	for _, r := range []int{8, 10, 12} {
		model, err := commit.NewModel(r)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			name     string
			generate func(context.Context, core.Model, ...core.Option) (*core.StateMachine, error)
		}{
			{"frontier", core.Generate},
			{"enumerate", core.GenerateEnumerated},
		} {
			b.Run(fmt.Sprintf("r=%d/%s", r, cfg.name), func(b *testing.B) {
				var machine *core.StateMachine
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					machine, err = cfg.generate(context.Background(), model, core.WithoutDescriptions(), core.WithoutMerging())
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(machine.Stats.InitialStates), "initial-states")
				b.ReportMetric(float64(len(machine.States)), "visited-states")
			})
		}
	}
}

// BenchmarkGenerateChain generates termination at r=4000, a chain of 8 003
// states none of which merge, but whose refinement splits one state off
// per round: the shape on which step 4 must stay linear.
func BenchmarkGenerateChain(b *testing.B) {
	entry, err := models.Get("termination")
	if err != nil {
		b.Fatal(err)
	}
	model, err := entry.Build(4000)
	if err != nil {
		b.Fatal(err)
	}
	var machine *core.StateMachine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		machine, err = core.Generate(context.Background(), model, core.WithoutDescriptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(machine.Stats.ReachableStates), "reachable-states")
	b.ReportMetric(float64(machine.Stats.FinalStates), "final-states")
}

// BenchmarkPipelineStages is the E11 ablation: generation cost without
// pruning (the enumerated reference), without merging, and full, on the
// redundant reading whose machines actually shrink under merging.
func BenchmarkPipelineStages(b *testing.B) {
	type generator = func(context.Context, core.Model, ...core.Option) (*core.StateMachine, error)
	configs := []struct {
		name     string
		generate generator
		opts     []core.Option
	}{
		{"full", core.Generate, nil},
		{"no-merge", core.Generate, []core.Option{core.WithoutMerging()}},
		{"no-prune", core.GenerateEnumerated, nil},
		{"no-prune-no-merge", core.GenerateEnumerated, []core.Option{core.WithoutMerging()}},
	}
	model, err := commit.NewModel(13, commit.WithVariant(commit.RedundantVariant()))
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			opts := append([]core.Option{core.WithoutDescriptions()}, cfg.opts...)
			var machine *core.StateMachine
			for i := 0; i < b.N; i++ {
				machine, err = cfg.generate(context.Background(), model, opts...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(machine.Stats.FinalStates), "final-states")
		})
	}
}

func buildCommitMachine(b *testing.B, r int) *core.StateMachine {
	b.Helper()
	model, err := commit.NewModel(r)
	if err != nil {
		b.Fatal(err)
	}
	machine, err := core.Generate(context.Background(), model)
	if err != nil {
		b.Fatal(err)
	}
	return machine
}

// benchRender measures one renderer on the smallest and the largest
// Table 1 member: r=46 is where a cold sweep spends its time, r=4 alone
// would not see it. MB/s is artefact bytes written. The machine's table,
// built once per machine by its first render, is built before the timer
// starts, so every iteration times a render alone.
func benchRender(b *testing.B, renderOne func(*core.StateMachine) (render.Artifact, error)) {
	for _, param := range []int{4, 46} {
		b.Run(fmt.Sprintf("r=%d", param), func(b *testing.B) {
			machine := buildCommitMachine(b, param)
			if _, err := machine.Table(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				art, err := renderOne(machine)
				if err != nil || len(art.Data) == 0 {
					b.Fatalf("empty artefact (%v)", err)
				}
				b.SetBytes(int64(len(art.Data)))
			}
		})
	}
}

// machineFormat returns the machine format's writer.
func machineFormat(b *testing.B, name string) func(*core.StateMachine) (render.Artifact, error) {
	f, err := render.New(name)
	if err != nil {
		b.Fatal(err)
	}
	return f.Render
}

// BenchmarkRenderText measures the Fig. 14 textual artefact (E2).
func BenchmarkRenderText(b *testing.B) { benchRender(b, machineFormat(b, "text")) }

// BenchmarkRenderDot measures the Fig. 15 DOT artefact (E3).
func BenchmarkRenderDot(b *testing.B) { benchRender(b, machineFormat(b, "dot")) }

// BenchmarkRenderXML measures the Fig. 15 XML artefact (E3).
func BenchmarkRenderXML(b *testing.B) { benchRender(b, machineFormat(b, "xml")) }

// BenchmarkRenderGoSource measures the Fig. 16 generated implementation
// (E4): one write through the per-slot gate, nothing read back. allocs/op
// is the informative column — about one per state.
func BenchmarkRenderGoSource(b *testing.B) {
	benchRender(b, func(m *core.StateMachine) (render.Artifact, error) { return render.GoSource(m, "bench") })
}

// BenchmarkRenderDoc measures the markdown documentation artefact: mostly
// the copying of each state's commentary, and a code span per name.
func BenchmarkRenderDoc(b *testing.B) { benchRender(b, machineFormat(b, "doc")) }

// sweepGCBytes is how many artefact bytes BenchmarkRenderSweep writes
// between two collections, several sweeps of the largest format (xml, 8.9
// MB/op): the heap holds about this much garbage at most.
const sweepGCBytes = 64 << 20

// BenchmarkRenderSweep is the render share of a cold-sweep lap, one format
// per sub-benchmark (E18): every registry model at every sweep parameter
// (26 machines, and the EFSM each generalises to), generated before the
// timer starts, rendered with no hashing and no garbage collection. An op
// is the whole sweep; MB/s is artefact bytes written.
func BenchmarkRenderSweep(b *testing.B) {
	type member struct {
		machine *core.StateMachine
		efsm    *core.EFSM
	}
	var sweep []member
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range entry.SweepParams {
			model, err := entry.Model(p)
			if err != nil {
				b.Fatal(err)
			}
			machine, err := core.Generate(context.Background(), model)
			if err != nil {
				b.Fatal(err)
			}
			abs, err := entry.Abstraction(p)
			if err != nil {
				b.Fatal(err)
			}
			efsm, err := core.GeneralizeEFSM(machine, abs)
			if err != nil {
				b.Fatal(err)
			}
			sweep = append(sweep, member{machine, efsm})
		}
	}
	for _, format := range render.Formats() {
		b.Run(format, func(b *testing.B) {
			var renderOne func(member) (render.Artifact, error)
			if render.IsEFSMFormat(format) {
				r, err := render.NewEFSM(format)
				if err != nil {
					b.Fatal(err)
				}
				renderOne = func(m member) (render.Artifact, error) { return r.RenderEFSM(m.efsm) }
			} else {
				r, err := render.New(format)
				if err != nil {
					b.Fatal(err)
				}
				renderOne = func(m member) (render.Artifact, error) { return r.Render(m.machine) }
			}
			// The sweep keeps 26 machines and their EFSMs live, so a
			// collection mid-op would time their marking, not the writers.
			// None runs during an op; between ops, with the timer stopped,
			// one runs once the ops since the last have written sweepGCBytes
			// (one per op took 54 s of wall clock for a 1 s efsm run on a
			// 2-core VM).
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			b.ReportAllocs()
			b.ResetTimer()
			var written int64
			pending := int64(sweepGCBytes)
			for i := 0; i < b.N; i++ {
				if pending >= sweepGCBytes {
					b.StopTimer()
					goruntime.GC()
					b.StartTimer()
					pending = 0
				}
				written = 0
				for _, m := range sweep {
					art, err := renderOne(m)
					if err != nil {
						b.Fatal(err)
					}
					written += int64(len(art.Data))
				}
				pending += written
			}
			b.SetBytes(written)
		})
	}
}

// BenchmarkGeneralizeSweep is the EFSM-view share of a cold-sweep lap
// (E18): every registry model at every sweep parameter (26 machines),
// generated with their transition tables before the timer starts, each
// coalesced under its abstraction. An op is the whole sweep.
func BenchmarkGeneralizeSweep(b *testing.B) {
	type member struct {
		machine *core.StateMachine
		abs     core.EFSMAbstraction
	}
	var sweep []member
	for _, name := range models.Names() {
		entry, err := models.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range entry.SweepParams {
			model, err := entry.Model(p)
			if err != nil {
				b.Fatal(err)
			}
			machine, err := core.Generate(context.Background(), model)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := machine.Table(); err != nil {
				b.Fatal(err)
			}
			abs, err := entry.Abstraction(p)
			if err != nil {
				b.Fatal(err)
			}
			sweep = append(sweep, member{machine, abs})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range sweep {
			if _, err := core.GeneralizeEFSM(m.machine, m.abs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGenerateEFSM measures §5.3 EFSM generalisation across models
// (E5).
func BenchmarkGenerateEFSM(b *testing.B) {
	for _, member := range []struct {
		bench, model string
		param        int
	}{
		{"commit/r=13", "commit", 13},
		{"consensus/n=9", "consensus", 9},
		{"termination/k=8", "termination", 8},
		{"chord/s=8", "chord", 8},
		{"storage/r=13", "storage", 13},
	} {
		entry, err := models.Get(member.model)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(member.bench, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := entry.EFSM(context.Background(), member.param); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateScenarios measures machine generation for every
// registered scenario at its default parameter — the per-model cost the
// serve path pays on a cache miss. State counts are asserted non-empty so
// a silently degenerate model cannot hide in the timing table.
func BenchmarkGenerateScenarios(b *testing.B) {
	for _, name := range models.Names() {
		b.Run(name, func(b *testing.B) {
			model, err := models.Build(name, 0)
			if err != nil {
				b.Fatal(err)
			}
			var machine *core.StateMachine
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machine, err = core.Generate(context.Background(), model, core.WithoutDescriptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			if machine.Stats.FinalStates == 0 {
				b.Fatal("empty machine")
			}
			b.ReportMetric(float64(machine.Stats.FinalStates), "final-states")
		})
	}
}

// commitRoundMessages is one uncontended commit round at a member that
// receives the update while free.
var commitRoundMessages = []string{
	commit.MsgFree, commit.MsgUpdate, commit.MsgVote, commit.MsgVote,
	commit.MsgCommit, commit.MsgCommit,
}

// BenchmarkDeliveryInterpreter measures one commit round on the
// interpreted generated machine (E6).
func BenchmarkDeliveryInterpreter(b *testing.B) {
	machine := buildCommitMachine(b, 4)
	inst, err := runtime.New(machine, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Reset()
		for _, msg := range commitRoundMessages {
			if _, err := inst.Deliver(msg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeliveryGenerated measures one commit round on the generated
// source implementation — the paper's deployed artefact (E6).
func BenchmarkDeliveryGenerated(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := commitfsm4.New(nil)
		for _, msg := range commitRoundMessages {
			m.Receive(msg)
		}
		if !m.Finished() {
			b.Fatal("round did not finish")
		}
	}
}

// BenchmarkDeliveryGeneric measures one commit round on the hand-written
// generic algorithm, the non-FSM baseline the paper expected to be
// comparable (§4.4, E6).
func BenchmarkDeliveryGeneric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := commit.NewGeneric(4, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, msg := range commitRoundMessages {
			g.Receive(msg)
		}
		if !g.Finished() {
			b.Fatal("round did not finish")
		}
	}
}

// BenchmarkDeliveryEFSM measures one commit round on the nine-state EFSM
// (E6: the intermediate point on the §3.2 spectrum).
func BenchmarkDeliveryEFSM(b *testing.B) {
	entry, err := models.Get("commit")
	if err != nil {
		b.Fatal(err)
	}
	efsm, err := entry.EFSM(context.Background(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := core.NewEFSMInstance(efsm)
		if err != nil {
			b.Fatal(err)
		}
		for _, msg := range commitRoundMessages {
			inst.Deliver(msg)
		}
		if !inst.Finished() {
			b.Fatal("round did not finish")
		}
	}
}

// BenchmarkCommitRound measures a full version-service append over the
// simulated network — peer-set location, update fan-out, quorum voting,
// commit exchange and client confirmation (E7).
func BenchmarkCommitRound(b *testing.B) {
	for _, r := range []int{4, 7} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			net := simnet.New(1)
			ring, err := chord.Build(1, 4*r)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := version.NewService(context.Background(), net, ring, r)
			if err != nil {
				b.Fatal(err)
			}
			client, err := svc.NewClient("bench-client")
			if err != nil {
				b.Fatal(err)
			}
			guid := storage.NewGUID("bench-file")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pid := storage.ComputePID([]byte(fmt.Sprintf("v%d", i)))
				if err := client.Update(guid, pid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreRetrieve measures the block-storage quorum write and
// hash-verified read (E8).
func BenchmarkStoreRetrieve(b *testing.B) {
	net := simnet.New(1)
	ring, err := chord.Build(1, 32)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range ring.Nodes() {
		id := simnet.NodeID(n.Name())
		if err := net.AddNode(id, storage.NewNode(id, storage.Honest)); err != nil {
			b.Fatal(err)
		}
	}
	endpoint, err := storage.NewEndpoint("bench-client", net, ring, 4)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		payload[1] = byte(i >> 8)
		pid, err := endpoint.Store(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := endpoint.Retrieve(pid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChordLookup measures routed lookups across overlay sizes and
// reports the average hop count — the logarithmic-routing series (E9).
func BenchmarkChordLookup(b *testing.B) {
	for _, size := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			ring, err := chord.Build(7, size)
			if err != nil {
				b.Fatal(err)
			}
			nodes := ring.Nodes()
			totalHops := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				from := nodes[i%len(nodes)]
				_, hops, err := from.FindSuccessor(chord.HashString(fmt.Sprintf("key-%d", i)))
				if err != nil {
					b.Fatal(err)
				}
				totalHops += hops
			}
			b.ReportMetric(float64(totalHops)/float64(b.N), "hops/op")
		})
	}
}

// BenchmarkContendedCommit measures commit rounds under two-client
// contention and reports the attempts needed, comparing retry policies
// (the §2.2 deadlock/back-off discussion).
func BenchmarkContendedCommit(b *testing.B) {
	policies := []version.RetryPolicy{
		version.FixedBackoff{Interval: 50 * 1e6},
		version.RandomBackoff{Max: 100 * 1e6},
		version.ExponentialBackoff{Base: 25 * 1e6, Cap: 400 * 1e6},
	}
	for _, policy := range policies {
		b.Run(policy.Name(), func(b *testing.B) {
			net := simnet.New(3)
			ring, err := chord.Build(3, 16)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := version.NewService(context.Background(), net, ring, 4)
			if err != nil {
				b.Fatal(err)
			}
			c1, err := svc.NewClient("c1", version.WithRetryPolicy(policy))
			if err != nil {
				b.Fatal(err)
			}
			c2, err := svc.NewClient("c2", version.WithRetryPolicy(policy))
			if err != nil {
				b.Fatal(err)
			}
			guid := storage.NewGUID("contended")
			attempts := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c1.Update(guid, storage.ComputePID([]byte(fmt.Sprintf("a%d", i)))); err != nil {
					b.Fatal(err)
				}
				attempts += c1.Attempts
				if err := c2.Update(guid, storage.ComputePID([]byte(fmt.Sprintf("b%d", i)))); err != nil {
					b.Fatal(err)
				}
				attempts += c2.Attempts
			}
			b.ReportMetric(float64(attempts)/float64(2*b.N), "attempts/op")
		})
	}
}

// BenchmarkGenerationPolicy compares the §4.2 deployment policies for
// dynamic parameter values: regenerating the machine on every use versus
// memoising generated machines per parameter (the paper's caching
// suggestion).
func BenchmarkGenerationPolicy(b *testing.B) {
	b.Run("regenerate-every-use", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model, err := commit.NewModel(7)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Generate(context.Background(), model, core.WithoutDescriptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		// The model and its fingerprint are built once, outside the loop,
		// so the row measures reuse: one generation, then lookups.
		model, err := commit.NewModel(7)
		if err != nil {
			b.Fatal(err)
		}
		cache := core.NewGenerationCache(core.WithoutDescriptions())
		fp := cache.Fingerprint(model)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.MachineForFingerprint(context.Background(), fp, model); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRenderAll measures the artefact pipeline over the full
// registry cross product (E13). "cold" includes every machine generation
// and render; "warm" measures the fully memoised batch, the steady state
// of a long-running serve process.
func BenchmarkRenderAll(b *testing.B) {
	reqs := artifact.AllRequests()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := artifact.New()
			for _, res := range p.RenderAll(context.Background(), reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := artifact.New()
		for _, res := range p.RenderAll(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range p.RenderAll(context.Background(), reqs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkColdSweep is a whole cold-sweep lap in process (E18): a fresh
// Pipeline per op renders the 182 keys of bench/golden/digests.json, one
// at a time, so every op pays the 26 generations, each machine's
// transition table and EFSM, and the 182 renders and hashes. MB/s is
// artefact bytes written.
func BenchmarkColdSweep(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("bench", "golden", "digests.json"))
	if err != nil {
		b.Fatal(err)
	}
	var golden struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		b.Fatal(err)
	}
	var reqs []artifact.Request
	for _, key := range slices.Sorted(maps.Keys(golden.Digests)) {
		parts := strings.Split(key, "/")
		param, err := strconv.Atoi(parts[1])
		if len(parts) != 3 || err != nil {
			b.Fatalf("malformed manifest key %q", key)
		}
		reqs = append(reqs, artifact.Request{Model: parts[0], Param: param, Format: parts[2]})
	}
	b.ReportAllocs()
	var written int64
	for i := 0; i < b.N; i++ {
		written = 0
		p := artifact.New()
		for _, req := range reqs {
			res := p.Render(context.Background(), req)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			written += int64(len(res.Artifact.Data))
		}
	}
	b.SetBytes(written)
}

// BenchmarkCacheHitMiss isolates the fingerprint-keyed generation cache:
// a miss pays model fingerprinting plus a full generation, a hit only the
// fingerprint and the memo lookup.
func BenchmarkCacheHitMiss(b *testing.B) {
	model, err := commit.NewModel(7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cache := core.NewGenerationCache(core.WithoutDescriptions())
			if _, err := cache.MachineFor(context.Background(), model); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		cache := core.NewGenerationCache(core.WithoutDescriptions())
		if _, err := cache.MachineFor(context.Background(), model); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cache.MachineFor(context.Background(), model); err != nil {
				b.Fatal(err)
			}
		}
		if st := cache.Stats(); st.Generations != 1 {
			b.Fatalf("generations = %d, want 1", st.Generations)
		}
	})
}

// BenchmarkSpecCompile measures the declarative authoring layer: decoding
// and validating the termination-port spec from its JSON wire form (the
// POST /v1/models hot path) and re-compiling the builder form.
func BenchmarkSpecCompile(b *testing.B) {
	data, err := terminationSpec("termination-spec").JSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp, err := asagen.ParseModelSpec(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := sp.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := terminationSpec("termination-spec").Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The 457-rule counter grid: a document that compiles formats no
	// diagnostic path, so what is left is the validation itself, the
	// per-message guard index and the canonical encoding the fingerprint
	// is pinned to.
	b.Run("grid", func(b *testing.B) {
		doc, wire := gridWireForm(b, []string{"->done"})
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Compile(doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gridWireForm compiles regenDoc's counter grid and returns its
// default-filled document with the bytes a client would POST for it.
func gridWireForm(b *testing.B, finishActions []string) (spec.Doc, []byte) {
	b.Helper()
	c, err := spec.Compile(regenDoc(3, finishActions))
	if err != nil {
		b.Fatal(err)
	}
	wire, err := c.JSON()
	if err != nil {
		b.Fatal(err)
	}
	return c.Doc(), wire
}

// BenchmarkSpecParse measures the decoder alone on the wire form of a
// spec — what POST and PUT /v1/models read before anything is validated:
// the counter grid (457 rules, a quarter of a megabyte) indented as
// Compiled.JSON writes it and compacted, and the termination port (six
// rules). The decoder's cost is per token, not per byte: the compact grid
// has 58 % fewer bytes and parses in about nine tenths of the time, so
// MB/s is no measure of it. allocs/op and B/op are the figures to gate on.
func BenchmarkSpecParse(b *testing.B) {
	_, grid := gridWireForm(b, []string{"->done"})
	var compact bytes.Buffer
	if err := json.Compact(&compact, grid); err != nil {
		b.Fatal(err)
	}
	termination, err := terminationSpec("termination-spec").JSON()
	if err != nil {
		b.Fatal(err)
	}
	for _, bench := range []struct {
		name string
		wire []byte
	}{{"grid", grid}, {"grid-compact", compact.Bytes()}, {"termination", termination}} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(bench.wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Parse(bench.wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpecWrite measures a registry write as the server takes it: a
// POST and then a PUT of the counter grid's wire form through api.Handler
// into an httptest recorder, then the DELETE that frees the name for the
// next op. Reading the body, decoding, compiling and registering are
// timed; nothing is generated. B/op is the figure this path is judged by:
// at a live server's collection rate every allocated byte is CPU.
func BenchmarkSpecWrite(b *testing.B) {
	_, wire := gridWireForm(b, []string{"->done"})
	h := api.NewHandler(artifact.New(artifact.WithRegistry(models.Default().Clone())))
	serve := func(method, path string, body []byte, want int) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			b.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
	}
	write := func() {
		serve(http.MethodPost, "/v1/models", wire, http.StatusCreated)
		serve(http.MethodPut, "/v1/models/regen-bench", wire, http.StatusOK)
		serve(http.MethodDelete, "/v1/models/regen-bench", nil, http.StatusNoContent)
	}
	write() // the server's pools are warm when the timer starts
	b.SetBytes(2 * int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
}

// BenchmarkSpecDiff measures classifying a one-rule edit of the counter
// grid — what PUT /v1/models/{model} pays to learn that it may regenerate
// incrementally. The comparison is structural and allocates the answer.
func BenchmarkSpecDiff(b *testing.B) {
	b.Run("grid", func(b *testing.B) {
		oldDoc, wire := gridWireForm(b, []string{"->done"})
		newDoc, _ := gridWireForm(b, []string{"->done", "->notify"})
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if delta := spec.Diff(oldDoc, newDoc); delta.IsFull() || len(delta.Messages) != 1 {
				b.Fatalf("delta = %+v, want exactly one affected message", delta)
			}
		}
	})
}

// BenchmarkGenerateSpecModel compares machine generation through a
// compiled declarative spec against the hand-written adapter it ports, on
// the uncached path — the rule-interpretation overhead of the authoring
// layer. The termination port has six rules, so a message's first rule
// is found at once; grid is the counter grid, whose every message has 56
// single-state carve-outs ahead of its general rule, so generating it is
// mostly picking the rule that fires.
func BenchmarkGenerateSpecModel(b *testing.B) {
	client := asagen.NewClient(asagen.WithIsolatedRegistry())
	if err := client.RegisterModel(terminationSpec("termination-spec")); err != nil {
		b.Fatal(err)
	}
	_, wire := gridWireForm(b, []string{"->done"})
	grid, err := asagen.ParseModelSpec(wire)
	if err != nil {
		b.Fatal(err)
	}
	if err := client.RegisterModel(grid); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bench := range []struct {
		name, model string
		param       int
	}{
		{"spec/k=8", "termination-spec", 8},
		{"adapter/k=8", "termination", 8},
		{"grid", "regen-bench", 3},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := client.Generate(ctx, bench.model,
					asagen.WithParam(bench.param), asagen.WithoutCache()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpecMember measures instantiating a family member of the
// counter grid, Compiled.Model: resolving the parameter and building each
// message's dispatch tables. What that costs depends on the number of
// guards, not on the parameter, so r=1048576 costs what r=8 does.
func BenchmarkSpecMember(b *testing.B) {
	c, err := spec.Compile(regenDoc(3, []string{"->done"}))
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range []int{8, 1 << 20} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Model(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// regenDoc is the incremental-regeneration benchmark model: four bounded
// counters with increment/decrement messages plus a finish rule, so the
// transition function spreads over nine messages and a one-rule edit
// invalidates only one effect column. Each message carries a tail of
// more-specific rules (single-state carve-outs, as large hand-tuned
// protocol specs accumulate), so evaluating the transition function is
// the dominant cost of exploration.
func regenDoc(param int, finishActions []string) spec.Doc {
	d := spec.Doc{
		Name:         "regen-bench",
		DefaultParam: param,
	}
	var when []spec.Cond
	var start []spec.Value
	carveOuts := func(name string) []spec.Rule {
		out := make([]spec.Rule, 0, 56)
		for k := 0; k < 56; k++ {
			out = append(out, spec.Rule{
				Message: name,
				When: []spec.Cond{
					{Component: "c0", Op: spec.OpEq, Value: spec.Lit(k % (param + 1))},
					{Component: "c1", Op: spec.OpEq, Value: spec.Lit((k + 3) % (param + 1))},
					{Component: "c2", Op: spec.OpEq, Value: spec.Lit((k + 5) % (param + 1))},
					{Component: "c3", Op: spec.OpEq, Value: spec.Lit((k + 7) % (param + 1))},
				},
				Actions: []string{fmt.Sprintf("->carve%d", k)},
			})
		}
		return out
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("c%d", i)
		d.Components = append(d.Components, spec.Component{
			Name: name, Kind: spec.KindInt, Max: spec.ParamValue(0),
		})
		d.Messages = append(d.Messages, fmt.Sprintf("INC%d", i), fmt.Sprintf("DEC%d", i))
		inc, dec := fmt.Sprintf("INC%d", i), fmt.Sprintf("DEC%d", i)
		d.Rules = append(d.Rules, carveOuts(inc)...)
		d.Rules = append(d.Rules, spec.Rule{
			Message: inc,
			When:    []spec.Cond{{Component: name, Op: spec.OpLt, Value: spec.ParamValue(0)}},
			Set:     []spec.Assign{{Component: name, Add: 1}},
		})
		d.Rules = append(d.Rules, carveOuts(dec)...)
		d.Rules = append(d.Rules, spec.Rule{
			Message: dec,
			When:    []spec.Cond{{Component: name, Op: spec.OpGt, Value: spec.Lit(0)}},
			Set:     []spec.Assign{{Component: name, Add: -1}},
		})
		when = append(when, spec.Cond{Component: name, Op: spec.OpEq, Value: spec.ParamValue(0)})
		start = append(start, spec.Lit(0))
	}
	d.Messages = append(d.Messages, "FIN")
	d.Rules = append(d.Rules, spec.Rule{
		Message: "FIN", When: when, Actions: finishActions, Finish: true,
	})
	d.Start = start
	return d
}

// BenchmarkRegenerateDelta measures incremental regeneration after a
// one-rule edit against from-scratch generation of the edited model. The
// incremental path recomputes one effect column out of nine and rebuilds;
// from-scratch re-applies every message in every state and re-interns the
// whole space. Merging is disabled on both sides (as in
// BenchmarkGenerateFrontier) so the comparison isolates exploration cost.
// Fingerprint equality is pinned before the timed loops so the speedup
// can never come from producing a different machine.
func BenchmarkRegenerateDelta(b *testing.B) {
	const param = 7
	compileModel := func(d spec.Doc) core.Model {
		c, err := spec.Compile(d)
		if err != nil {
			b.Fatal(err)
		}
		m, err := c.Model(param)
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	oldDoc := regenDoc(param, []string{"->done"})
	newDoc := regenDoc(param, []string{"->done", "->notify"})
	oldCompiled, err := spec.Compile(oldDoc)
	if err != nil {
		b.Fatal(err)
	}
	newCompiled, err := spec.Compile(newDoc)
	if err != nil {
		b.Fatal(err)
	}
	delta := spec.Diff(oldCompiled.Doc(), newCompiled.Doc())
	if delta.IsFull() || len(delta.Messages) != 1 {
		b.Fatalf("delta = %+v, want exactly one affected message", delta)
	}

	ctx := context.Background()
	genOpts := []core.Option{core.WithoutDescriptions(), core.WithoutMerging()}
	oldModel, newModel := compileModel(oldDoc), compileModel(newDoc)
	oldMachine, err := core.Generate(ctx, oldModel, genOpts...)
	if err != nil {
		b.Fatal(err)
	}
	want, err := core.Generate(ctx, newModel, genOpts...)
	if err != nil {
		b.Fatal(err)
	}

	// Fingerprint equality is pinned here, outside the timed loops, so
	// the timing compares pure regeneration against pure generation.
	pinned, err := core.Regenerate(ctx, oldMachine, newModel, delta, genOpts...)
	if err != nil {
		b.Fatal(err)
	}
	if pinned.Fingerprint() != want.Fingerprint() {
		b.Fatalf("incremental fingerprint %s != from-scratch %s",
			pinned.Fingerprint(), want.Fingerprint())
	}

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Regenerate(ctx, oldMachine, newModel, delta, genOpts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("from-scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Generate(ctx, newModel, genOpts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeArtifact measures end-to-end serve-path latency through a
// real HTTP round trip: client connection, routing, pipeline lookup,
// rendering and caching headers. "cold" purges the pipeline before every
// request so each one pays generation and rendering; "warm" measures the
// fully memoised steady state. Per-request latencies are sorted and the
// p50/p99 quantiles reported alongside ns/op.
func BenchmarkServeArtifact(b *testing.B) {
	const path = "/v1/models/commit/artifacts/text?r=7"
	serve := func(b *testing.B, ts *httptest.Server) time.Duration {
		b.Helper()
		begin := time.Now()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return time.Since(begin)
	}
	reportQuantiles := func(b *testing.B, lat []time.Duration) {
		b.Helper()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2]), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99-ns")
	}

	b.Run("cold", func(b *testing.B) {
		p := artifact.New()
		ts := httptest.NewServer(api.NewHandler(p))
		defer ts.Close()
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p.Purge()
			b.StartTimer()
			lat = append(lat, serve(b, ts))
		}
		reportQuantiles(b, lat)
	})
	b.Run("warm", func(b *testing.B) {
		ts := httptest.NewServer(api.NewHandler(artifact.New()))
		defer ts.Close()
		serve(b, ts)
		lat := make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, serve(b, ts))
		}
		reportQuantiles(b, lat)
	})
}

// alternatingTrace is a long non-finishing trace of the commit machine,
// as JSON Lines and as the text log the default regex rule reads.
func alternatingTrace(lines int) (jsonl, text bytes.Buffer) {
	for i := 0; i < lines; i++ {
		if i%2 == 0 {
			jsonl.WriteString("{\"msg\":\"FREE\"}\n")
			text.WriteString("12:00:00.001 member-0 recv FREE from member-1\n")
		} else {
			jsonl.WriteString("{\"msg\":\"NOT_FREE\"}\n")
			text.WriteString("12:00:00.002 member-0 recv NOT_FREE from member-1\n")
		}
	}
	return jsonl, text
}

// BenchmarkTraceCheck measures streaming trace conformance at line rate:
// a long non-finishing trace (FREE/NOT_FREE alternation never crosses a
// quorum threshold) checked against the commit machine, per decoder
// front-end. Memory stays bounded by the longest line regardless of
// trace length. The jsonl and regex runs observe through an ObserverFunc,
// which copies each verdict; the -tally runs through a *trace.Tally,
// which reads it in place, as the check route's event stream does.
func BenchmarkTraceCheck(b *testing.B) {
	machine := buildCommitMachine(b, 4)
	const lines = 1000
	jsonl, text := alternatingTrace(lines)
	run := func(b *testing.B, format string, data []byte, obs trace.Observer) {
		mon, err := trace.NewMonitor(trace.WithTarget("", machine), trace.WithObserver(obs))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec := trace.Check{Format: format}.Decoder(bytes.NewReader(data))
			rep, err := mon.Run(context.Background(), dec)
			dec.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Conforming() || rep.Events != lines {
				b.Fatalf("report = %+v", rep)
			}
		}
		b.ReportMetric(float64(b.N)*lines/b.Elapsed().Seconds(), "lines/s")
	}
	discard := trace.ObserverFunc(func(trace.Verdict) bool { return true })
	b.Run("jsonl", func(b *testing.B) { run(b, trace.FormatJSONL, jsonl.Bytes(), discard) })
	b.Run("regex", func(b *testing.B) { run(b, trace.FormatRegex, text.Bytes(), discard) })
	b.Run("jsonl-tally", func(b *testing.B) { run(b, trace.FormatJSONL, jsonl.Bytes(), new(trace.Tally)) })
	b.Run("regex-tally", func(b *testing.B) { run(b, trace.FormatRegex, text.Bytes(), new(trace.Tally)) })
}

// flushCounter counts the flushes a handler asks of its ResponseWriter.
// Unwrap lets http.ResponseController reach the connection's deadlines.
type flushCounter struct {
	http.ResponseWriter
	flushes *int
}

func (w flushCounter) Flush() {
	*w.flushes++
	w.ResponseWriter.(http.Flusher).Flush()
}

func (w flushCounter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// writeCounter is a listener whose connections count their writes: on a
// plain TCP connection, one Write is one write(2).
type writeCounter struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countedConn{c, l.writes}, err
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkCheckRoute measures POST /v1/models/{model}/check through a
// real HTTP round trip: a 5 000-line trace sent in one piece, the event
// stream read to its end, per decoder front-end. flushes/op and writes/op
// are the deterministic columns: the route flushes when the trace runs
// dry, not once per verdict, so it counts reads of the body and 32 KiB of
// events, not lines; and each flush, the headers' included, is one write
// to the connection.
func BenchmarkCheckRoute(b *testing.B) {
	const lines = 5000
	jsonl, text := alternatingTrace(lines)
	run := func(b *testing.B, query string, data []byte) {
		h := api.NewHandler(artifact.New())
		flushes := 0
		var writes atomic.Int64
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(flushCounter{w, &flushes}, r)
		}))
		ts.Listener = writeCounter{ts.Listener, &writes}
		ts.Start()
		defer ts.Close()
		want := []byte(fmt.Sprintf(`"stats":{"lines":%d,"events":%d,"accepted":%d,`, lines, lines, lines))
		var body bytes.Buffer // reused, so the client's share is its reads
		post := func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/models/commit/check?r=4"+query, "text/plain", bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			body.Reset()
			_, err = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Contains(body.Bytes(), want) {
				b.Fatalf("stream of %d bytes does not end in a summary with %s", body.Len(), want)
			}
		}
		post() // generate the machine outside the timed region
		flushes = 0
		writes.Store(0)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
		b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
		b.ReportMetric(float64(writes.Load())/float64(b.N), "writes/op")
		b.ReportMetric(float64(b.N)*lines/b.Elapsed().Seconds(), "lines/s")
	}
	b.Run("jsonl", func(b *testing.B) { run(b, "", jsonl.Bytes()) })
	b.Run("regex", func(b *testing.B) { run(b, "&format=regex", text.Bytes()) })
}

// BenchmarkFleetSim measures the fleet-scale simulation engine (E17): one
// full deterministic scenario run — hundreds of instances born by a
// poisson arrival process over sharded virtual-time networks, every
// delivery classified — per iteration. instances/sec is the engine's
// wall-clock fleet throughput; the p50-ns/p99-ns metrics are the
// *virtual-time* completion percentiles read off the deterministic
// histogram, so any drift in the p50/p99 columns benchgate prints is a
// behaviour change, not noise (benchgate gates allocs/op only).
func BenchmarkFleetSim(b *testing.B) {
	sc := fleetsim.Scenario{
		Name:       "bench",
		Model:      "commit",
		Param:      4,
		Instances:  256,
		Seed:       42,
		DurationMS: 10000,
		Arrival:    fleetsim.Arrival{Process: fleetsim.ArrivalPoisson, RatePerSec: 100},
		Faults:     fleetsim.Faults{DuplicateRate: 0.02},
		Tolerance:  1,
	}
	if err := sc.Normalize(); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rep *fleetsim.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = fleetsim.Run(ctx, sc, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep.UnexpectedViolations != 0 {
		b.Fatalf("%d unexpected violations", rep.UnexpectedViolations)
	}
	b.ReportMetric(float64(rep.Fleet.Born)*float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
	b.ReportMetric(float64(rep.Completion.P50Ns), "p50-ns")
	b.ReportMetric(float64(rep.Completion.P99Ns), "p99-ns")
}

// nullTransport and nullClock isolate the routing hot path: no sends
// fire and no timers arm, so the benchmark measures only the ring
// lookup and the ownership decision.
type nullTransport struct{}

func (nullTransport) Send(string, string, []byte) {}

type nullClock struct{}

func (nullClock) Now() time.Duration          { return 0 }
func (nullClock) After(time.Duration, func()) {}

// BenchmarkClusterRoute measures the cluster serve path's per-request
// routing decision — consistent-hash ring lookup plus owner/replica
// classification — across membership sizes. The decision sits on the
// /v1 hot path of every clustered request, so it is ns/op and
// alloc-gated like the render-path benchmarks.
func BenchmarkClusterRoute(b *testing.B) {
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			node, err := cluster.New(cluster.Config{
				ID: "bench-node-000", URL: "bench-node-000", Replicas: 2,
				Transport: nullTransport{}, Clock: nullClock{},
			})
			if err != nil {
				b.Fatal(err)
			}
			node.Start()
			members := make([]cluster.Member, 0, size-1)
			for i := 1; i < size; i++ {
				id := fmt.Sprintf("bench-node-%03d", i)
				members = append(members, cluster.Member{ID: id, URL: id, Incarnation: 1, Status: cluster.StatusAlive})
			}
			payload, err := json.Marshal(struct {
				From    cluster.Member   `json:"from"`
				Members []cluster.Member `json:"members"`
			}{From: members[0], Members: members})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := node.Handle(cluster.KindGossipAck, payload, members[0].URL); err != nil {
				b.Fatal(err)
			}
			keys := make([]string, 512)
			for i := range keys {
				keys[i] = fmt.Sprintf("%016x", uint64(chord.HashString(fmt.Sprintf("machine-fingerprint-%d", i))))
			}
			b.ReportAllocs()
			b.ResetTimer()
			owners := 0
			for i := 0; i < b.N; i++ {
				if node.Route(keys[i%len(keys)]).Relation == cluster.RelOwner {
					owners++
				}
			}
			b.StopTimer()
			if owners == 0 && b.N >= len(keys) {
				b.Fatal("node owned none of 512 uniform keys — the ring is broken")
			}
		})
	}
}
