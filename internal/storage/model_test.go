package storage

// Differential conformance for the registry's storage-endpoint machines
// (compiled from internal/models/storage.json): the hand-written Endpoint runs real store/retrieve operations over simnet
// against replica nodes with randomized Byzantine behaviours (silent,
// lying, corrupting — at most f faulty per schedule), and the observed
// protocol events — acknowledgements counted to quorum, fetch attempts
// until the hash-verified reply — are replayed through the runtime
// interpreter and the EFSM instance. The generated transitions must track
// the live operation exactly, and events beyond the fault envelope (a
// post-quorum ack, an f+1-th miss) must be rejected.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"asagen/internal/chord"
	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/runtime"
	"asagen/internal/simnet"
)

// Messages and actions of the endpoint machine.
const (
	evStore     = "STORE"
	evStoreAck  = "STORE_ACK"
	evFetch     = "FETCH"
	evFetchMiss = "FETCH_MISS"
	evFetchOK   = "FETCH_OK"

	actStoreBlock   = "->store"
	actFetchReplica = "->fetch"
)

// conformanceSchedules is the number of randomized fault schedules the
// conformance run must cover (the acceptance floor is 100).
const conformanceSchedules = 110

// endpointMachines generates the concrete machine (unmerged, so state
// names are raw component vectors) and the EFSM for one replication
// factor.
func endpointMachines(t *testing.T, r int) (core.Model, *core.StateMachine, *core.EFSM) {
	t.Helper()
	model, err := models.Build("storage", r)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := core.Generate(context.Background(), model,
		core.WithoutDescriptions(), core.WithoutMerging())
	if err != nil {
		t.Fatalf("Generate(r=%d): %v", r, err)
	}
	efsm := generateEFSM(t, r)
	return model, machine, efsm
}

// twin drives the concrete instance and the EFSM in lockstep.
type twin struct {
	t    *testing.T
	seed int64
	inst *runtime.Instance
	efsm *core.EFSMInstance
}

func (tw *twin) deliver(msg string) []string {
	tw.t.Helper()
	actions, err := tw.inst.Deliver(msg)
	if err != nil {
		tw.t.Fatalf("seed %d: machine rejected %s in state %s: %v", tw.seed, msg, tw.inst.StateName(), err)
	}
	eActions, ok := tw.efsm.Deliver(msg)
	if !ok {
		tw.t.Fatalf("seed %d: EFSM rejected %s in state %s", tw.seed, msg, tw.efsm.StateName())
	}
	if !slices.Equal(actions, eActions) {
		tw.t.Fatalf("seed %d: %s actions diverge: machine %v, EFSM %v", tw.seed, msg, actions, eActions)
	}
	return actions
}

// rejected asserts both executions refuse the event.
func (tw *twin) rejected(msg, why string) {
	tw.t.Helper()
	var ignored *runtime.IgnoredError
	if _, err := tw.inst.Deliver(msg); !errors.As(err, &ignored) {
		tw.t.Fatalf("seed %d: machine accepted %s (%s), err=%v", tw.seed, msg, why, err)
	}
	if _, ok := tw.efsm.Deliver(msg); ok {
		tw.t.Fatalf("seed %d: EFSM accepted %s (%s)", tw.seed, msg, why)
	}
}

// runSchedule exercises one randomized fault schedule end to end. It
// reports false when the schedule is skipped because the block's replica
// keys collide on the overlay (the machine models r distinct replicas).
func runSchedule(t *testing.T, seed int64, byR map[int]core.Model, machines map[int]*core.StateMachine, efsms map[int]*core.EFSM) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := []int{4, 7}
	r := rs[rng.Intn(len(rs))]
	model := byR[r]
	f, quorum := tolerance(model)

	net := simnet.New(seed)
	ring, err := chord.Build(seed, 48)
	if err != nil {
		t.Fatal(err)
	}

	// At most f nodes misbehave, with uniformly random fault types; the
	// fault count is drawn once so max-fault schedules stay as likely as
	// fault-free ones.
	faulty := map[int]Behaviour{}
	behaviours := []Behaviour{Silent, Lying, Corrupting}
	for faults := rng.Intn(f + 1); len(faulty) < faults; {
		faulty[rng.Intn(ring.Size())] = behaviours[rng.Intn(len(behaviours))]
	}
	fetched := make(map[simnet.NodeID]int)
	for i, n := range ring.Nodes() {
		behaviour := Honest
		if b, ok := faulty[i]; ok {
			behaviour = b
		}
		id := simnet.NodeID(n.Name())
		node := NewNode(id, behaviour)
		err := net.AddNode(id, simnet.HandlerFunc(func(net *simnet.Network, msg simnet.Message) {
			if msg.Type == MsgFetch {
				fetched[id]++
			}
			node.HandleMessage(net, msg)
		}))
		if err != nil {
			t.Fatal(err)
		}
	}

	endpoint, err := NewEndpoint("client", net, ring, r)
	if err != nil {
		t.Fatal(err)
	}

	data := make([]byte, 64)
	rng.Read(data)
	pid := ComputePID(data)
	owners := map[string]bool{}
	for _, key := range KeysForPID(pid, r) {
		owner, err := ring.NodeFor(key)
		if err != nil {
			t.Fatal(err)
		}
		owners[owner.Name()] = true
	}
	if len(owners) != r {
		return false // replica keys collide: the machine models r distinct replicas
	}

	inst, err := runtime.New(machines[r], nil)
	if err != nil {
		t.Fatal(err)
	}
	efsmInst, err := core.NewEFSMInstance(efsms[r])
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{t: t, seed: seed, inst: inst, efsm: efsmInst}

	// Out-of-protocol prefixes must be rejected before the store begins.
	tw.rejected(evStoreAck, "ack before store")
	tw.rejected(evFetch, "fetch before the block is durable")

	// Store: the live endpoint collects exactly r−f acknowledgements (with
	// at most f silent or lying replicas the quorum always completes).
	if _, err := endpoint.Store(data); err != nil {
		t.Fatalf("seed %d: Store: %v", seed, err)
	}
	if actions := tw.deliver(evStore); !slices.Contains(actions, actStoreBlock) {
		t.Fatalf("seed %d: STORE actions = %v, want %s", seed, actions, actStoreBlock)
	}
	for i := 0; i < quorum; i++ {
		tw.deliver(evStoreAck)
	}
	want := core.Vector{1, quorum, 0, 0}.Name(model.Components())
	if got := inst.StateName(); got != want {
		t.Fatalf("seed %d: after store, machine state %s, live endpoint implies %s", seed, got, want)
	}
	if got := efsmInst.Var("acks_received"); got != quorum {
		t.Fatalf("seed %d: EFSM acks_received = %d, want %d", seed, got, quorum)
	}
	// The endpoint discards the pending ack set at quorum; a late ack must
	// be rejected, not counted.
	tw.rejected(evStoreAck, "ack after quorum")

	// Drain in-flight deliveries (replica copies still propagating) so the
	// retrieve runs against the settled store, then count its attempts.
	net.Run(0)
	got, err := endpoint.Retrieve(pid)
	if err != nil {
		t.Fatalf("seed %d: Retrieve: %v", seed, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("seed %d: Retrieve returned wrong content", seed)
	}
	attempts := 0
	for _, n := range fetched {
		attempts += n
	}
	misses := attempts - 1
	if misses < 0 || misses > f {
		t.Fatalf("seed %d: live endpoint needed %d attempts with f=%d — outside the machine's fault envelope",
			seed, attempts, f)
	}
	if actions := tw.deliver(evFetch); !slices.Contains(actions, actFetchReplica) {
		t.Fatalf("seed %d: FETCH actions = %v, want %s", seed, actions, actFetchReplica)
	}
	for i := 0; i < misses; i++ {
		if actions := tw.deliver(evFetchMiss); !slices.Contains(actions, actFetchReplica) {
			t.Fatalf("seed %d: FETCH_MISS actions = %v, want retry %s", seed, actions, actFetchReplica)
		}
	}
	tw.deliver(evFetchOK)
	if !inst.Finished() || !efsmInst.Finished() {
		t.Fatalf("seed %d: retrieve complete but machine not finished (machine=%v efsm=%v)",
			seed, inst.Finished(), efsmInst.Finished())
	}
	return true
}

// TestEndpointModelConformsToSimulation is the simnet differential
// conformance harness: ≥100 randomized Byzantine fault schedules, each a
// real quorum store plus verified retrieve replayed through the generated
// machine.
func TestEndpointModelConformsToSimulation(t *testing.T) {
	byR := map[int]core.Model{}
	machines := map[int]*core.StateMachine{}
	efsms := map[int]*core.EFSM{}
	for _, r := range []int{4, 7} {
		byR[r], machines[r], efsms[r] = endpointMachines(t, r)
	}

	valid := 0
	for seed := int64(0); valid < conformanceSchedules && seed < 4*conformanceSchedules; seed++ {
		if runSchedule(t, seed, byR, machines, efsms) {
			valid++
		}
	}
	if valid < 100 {
		t.Fatalf("only %d valid schedules ran, want >= 100", valid)
	}
}

// TestEndpointModelFaultExhaustion pins the redundancy bound in the
// generated machine: exactly f misses are tolerated, and the f+1-th is
// rejected as outside the fault model — the machine encoding of "one
// honest replica suffices".
func TestEndpointModelFaultExhaustion(t *testing.T) {
	model, machine, efsm := endpointMachines(t, 4)
	inst, err := runtime.New(machine, nil)
	if err != nil {
		t.Fatal(err)
	}
	efsmInst, err := core.NewEFSMInstance(efsm)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{t: t, seed: -1, inst: inst, efsm: efsmInst}

	f, quorum := tolerance(model)
	tw.deliver(evStore)
	for i := 0; i < quorum; i++ {
		tw.deliver(evStoreAck)
	}
	tw.deliver(evFetch)
	for i := 0; i < f; i++ {
		tw.deliver(evFetchMiss)
	}
	tw.rejected(evFetchMiss, fmt.Sprintf("miss %d with f=%d", f+1, f))
	tw.deliver(evFetchOK)
	if !inst.Finished() {
		t.Fatal("machine not finished after the verified reply")
	}
}

// efsmStructure renders an EFSM's transition structure with symbolic guard
// bounds (falling back to the concrete literal, which must then be a
// parameter-independent constant), for cross-parameter comparison.
func efsmStructure(e *core.EFSM) string {
	var b []byte
	bound := func(sym string, v int) string {
		if sym != "" {
			return sym
		}
		return fmt.Sprintf("%d", v)
	}
	for _, s := range e.States {
		b = append(b, s.Name...)
		b = append(b, ":\n"...)
		for _, tr := range s.Transitions {
			guard := "true"
			if !tr.Guard.Unconditional() {
				guard = fmt.Sprintf("%s <= %s <= %s",
					bound(tr.Guard.MinSym, tr.Guard.Min), tr.Guard.Variable, bound(tr.Guard.MaxSym, tr.Guard.Max))
			}
			ops := ""
			for _, op := range tr.VarOps {
				ops += " " + op.String()
			}
			b = append(b, fmt.Sprintf("  %s [%s] /%s {%s} -> %s\n",
				tr.Message, guard, ops, strings.Join(tr.Actions, ","), tr.Target.Name)...)
		}
	}
	return string(b)
}

// TestEFSMGenericInReplicationFactor checks the §5.3 property for the
// endpoint EFSM: machines generalised from different replication factors
// share an identical symbolic structure. Factors with f = 1 (r < 7) are
// excluded: there the miss-tolerance interval degenerates to a point and
// its symbolic anchors coincide with the constants, exactly as the commit
// EFSM's small-f factors do.
func TestEFSMGenericInReplicationFactor(t *testing.T) {
	base := generateEFSM(t, 7)
	baseStruct := efsmStructure(base)
	for _, r := range []int{13, 25} {
		e := generateEFSM(t, r)
		if got := efsmStructure(e); got != baseStruct {
			t.Errorf("r=%d: EFSM structure differs from r=7:\n--- r=7:\n%s\n--- r=%d:\n%s", r, baseStruct, r, got)
		}
	}
}

// tolerance returns the fault tolerance f the endpoint model declares and
// its store quorum r−f.
func tolerance(model core.Model) (f, quorum int) {
	f = model.(interface{ FaultTolerance() int }).FaultTolerance()
	return f, model.Parameter() - f
}

// generateEFSM generalises the registry's family member for r from a
// generation of its own.
func generateEFSM(t *testing.T, r int) *core.EFSM {
	t.Helper()
	entry, err := models.Get("storage")
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := entry.EFSM(context.Background(), r)
	if err != nil {
		t.Fatalf("GenerateEFSM(r=%d): %v", r, err)
	}
	return efsm
}
