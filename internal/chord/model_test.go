package chord

// Differential conformance for the registry's ring-membership machines
// (compiled from internal/models/chord.json): the hand-written Ring is
// driven through randomized churn schedules (joins,
// fail-stop failures and graceful leaves, scheduled through simnet timers),
// and a designated node's observed membership state is replayed event for
// event through the runtime interpreter and the EFSM instance. The
// generated transitions must track the live node exactly: same successor
// occupancy, same predecessor linkage, same actions on every event, no
// event ever rejected.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"asagen/internal/core"
	"asagen/internal/models"
	"asagen/internal/runtime"
	"asagen/internal/simnet"
)

// Actions of the membership machine.
const (
	actLookup  = "->lookup"
	actHandoff = "->transfer-keys"
)

// conformanceSchedules is the number of randomized fault schedules each
// conformance run covers (the acceptance floor is 100).
const conformanceSchedules = 120

// membershipMachines generates the concrete machine (unmerged, so state
// names are raw component vectors) and the EFSM for one successor-list
// length.
func membershipMachines(t *testing.T, s int) (core.Model, *core.StateMachine, *core.EFSM) {
	t.Helper()
	model, err := models.Build("chord", s)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := core.Generate(context.Background(), model,
		core.WithoutDescriptions(), core.WithoutMerging())
	if err != nil {
		t.Fatalf("Generate(s=%d): %v", s, err)
	}
	efsm := generateEFSM(t, s)
	return model, machine, efsm
}

// observeMembership reports the designated node's membership view: live
// successor-list entries (excluding itself, capped at s) and whether a live
// non-self predecessor is linked.
func observeMembership(d *Node, s int) (succ int, pred bool) {
	for _, e := range d.successors {
		if e != nil && e.alive && e != d {
			succ++
		}
	}
	if succ > s {
		succ = s
	}
	p := d.predecessor
	return succ, p != nil && p.alive && p != d
}

// replay tracks one schedule's twin execution: the live node on one side,
// the interpreted machine plus the EFSM instance on the other.
type replay struct {
	t     *testing.T
	seed  int64
	model core.Model
	inst  *runtime.Instance
	efsm  *core.EFSMInstance
	succ  int
	pred  bool
}

// deliver feeds one event to both the concrete instance and the EFSM and
// asserts they fire with identical actions.
func (rp *replay) deliver(msg string) []string {
	rp.t.Helper()
	actions, err := rp.inst.Deliver(msg)
	if err != nil {
		rp.t.Fatalf("seed %d: machine rejected %s in state %s: %v", rp.seed, msg, rp.inst.StateName(), err)
	}
	eActions, ok := rp.efsm.Deliver(msg)
	if !ok {
		rp.t.Fatalf("seed %d: EFSM rejected %s in state %s", rp.seed, msg, rp.efsm.StateName())
	}
	if !slices.Equal(actions, eActions) {
		rp.t.Fatalf("seed %d: %s actions diverge: machine %v, EFSM %v", rp.seed, msg, actions, eActions)
	}
	return actions
}

// sync replays the delta between the previously tracked view and the live
// node's current view, then asserts both executions landed on the state
// encoding that view.
func (rp *replay) sync(d *Node, s int) {
	rp.t.Helper()
	succ, pred := observeMembership(d, s)
	for rp.succ > succ {
		rp.deliver(EvSuccFail)
		rp.succ--
	}
	if rp.pred && !pred {
		rp.deliver(EvPredFail)
		rp.pred = false
	}
	for rp.succ < succ {
		rp.deliver(EvStabilize)
		rp.succ++
	}
	if !rp.pred && pred {
		rp.deliver(EvNotify)
		rp.pred = true
	}

	want := core.Vector{1, succ, 0}
	if pred {
		want[2] = 1 // has_predecessor
	}
	if got, expect := rp.inst.StateName(), want.Name(rp.model.Components()); got != expect {
		rp.t.Fatalf("seed %d: machine state %s, live node implies %s", rp.seed, got, expect)
	}
	wantLabel := "IN_RING_NO_PRED"
	if pred {
		wantLabel = "IN_RING"
	}
	if got := rp.efsm.StateName(); got != wantLabel {
		rp.t.Fatalf("seed %d: EFSM state %s, live node implies %s", rp.seed, got, wantLabel)
	}
	if got := rp.efsm.Var("successors"); got != succ {
		rp.t.Fatalf("seed %d: EFSM successors = %d, live node has %d", rp.seed, got, succ)
	}
}

// TestMembershipModelConformsToRing is the differential conformance
// harness: ≥100 randomized churn schedules, each driven through simnet
// timers against a live Ring, each replayed through the generated machine.
func TestMembershipModelConformsToRing(t *testing.T) {
	lengths := []int{2, 3, 4}
	type generated struct {
		model   core.Model
		machine *core.StateMachine
		efsm    *core.EFSM
	}
	byLen := map[int]generated{}
	for _, s := range lengths {
		model, machine, efsm := membershipMachines(t, s)
		byLen[s] = generated{model, machine, efsm}
	}

	for seed := int64(0); seed < conformanceSchedules; seed++ {
		s := lengths[seed%int64(len(lengths))]
		gen := byLen[s]
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		ring := NewRing(seed, WithSuccessorListLen(s))
		net := simnet.New(seed)

		// A random prefix of the overlay exists before the designated node
		// joins.
		for i := 0; i < rng.Intn(6); i++ {
			if _, err := ring.Join(fmt.Sprintf("pre-%d-%d", seed, i)); err != nil {
				t.Fatalf("seed %d: pre-join: %v", seed, err)
			}
		}
		ring.Stabilize()

		inst, err := runtime.New(gen.machine, nil)
		if err != nil {
			t.Fatal(err)
		}
		efsmInst, err := core.NewEFSMInstance(gen.efsm)
		if err != nil {
			t.Fatal(err)
		}
		rp := &replay{t: t, seed: seed, model: gen.model, inst: inst, efsm: efsmInst}

		d, err := ring.Join(fmt.Sprintf("designated-%d", seed))
		if err != nil {
			t.Fatalf("seed %d: join: %v", seed, err)
		}
		if actions := rp.deliver(EvJoin); !slices.Contains(actions, actLookup) {
			t.Fatalf("seed %d: JOIN actions = %v, want %s", seed, actions, actLookup)
		}
		ring.Stabilize()
		rp.sync(d, s)

		// The churn schedule itself is simnet-driven: every event is a
		// timer on the simulated clock, delivered in virtual-time order.
		events := 6 + rng.Intn(5)
		for i := 0; i < events; i++ {
			kind := rng.Intn(3)
			name := fmt.Sprintf("churn-%d-%d", seed, i)
			net.After(time.Duration(1+rng.Intn(40))*time.Millisecond, func() {
				others := make([]*Node, 0, ring.Size())
				for _, n := range ring.Nodes() {
					if n != d {
						others = append(others, n)
					}
				}
				switch {
				case kind == 0 || len(others) == 0:
					if _, err := ring.Join(name); err != nil {
						t.Errorf("seed %d: churn join: %v", seed, err)
					}
				case kind == 1:
					ring.Fail(others[rng.Intn(len(others))])
				default:
					ring.Leave(others[rng.Intn(len(others))])
				}
				ring.Stabilize()
				rp.sync(d, s)
			})
		}
		net.Run(0)

		ring.Leave(d)
		if actions := rp.deliver(EvLeave); !slices.Contains(actions, actHandoff) {
			t.Fatalf("seed %d: LEAVE actions = %v, want %s", seed, actions, actHandoff)
		}
		if !inst.Finished() || !efsmInst.Finished() {
			t.Fatalf("seed %d: departed node's machine not finished (machine=%v efsm=%v)",
				seed, inst.Finished(), efsmInst.Finished())
		}
	}
}

// TestMembershipModelRejectsOutOfProtocolEvents pins the guard behaviour
// the conformance replay relies on: events outside the protocol's fault
// envelope are rejected, not mis-transitioned.
func TestMembershipModelRejectsOutOfProtocolEvents(t *testing.T) {
	_, machine, _ := membershipMachines(t, 2)
	inst, err := runtime.New(machine, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range []string{EvStabilize, EvNotify, EvSuccFail, EvPredFail, EvLeave} {
		if _, err := inst.Deliver(msg); err == nil {
			t.Errorf("unjoined node accepted %s", msg)
		}
	}
	if _, err := inst.Deliver(EvJoin); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(EvJoin); err == nil {
		t.Error("joined node accepted a second JOIN")
	}
	// s-1 = 1 successor failure is tolerated silently; the exhausting one
	// triggers the re-bootstrap lookup.
	if _, err := inst.Deliver(EvStabilize); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Deliver(EvStabilize); err != nil {
		t.Fatal(err)
	}
	if actions, err := inst.Deliver(EvSuccFail); err != nil || len(actions) != 0 {
		t.Fatalf("first SUCC_FAIL: actions=%v err=%v, want silent tolerance", actions, err)
	}
	if actions, err := inst.Deliver(EvSuccFail); err != nil || !slices.Contains(actions, actLookup) {
		t.Fatalf("exhausting SUCC_FAIL: actions=%v err=%v, want %s", actions, err, actLookup)
	}
	if _, err := inst.Deliver(EvSuccFail); err == nil {
		t.Error("empty successor list accepted SUCC_FAIL")
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

// TestEFSMGenericInSuccessorListLength checks the §5.3 property for the
// membership EFSM: machines generalised from different successor-list
// lengths share an identical symbolic structure. Lengths s ≤ 3 are
// excluded: there the symbolic anchors coincide (s−1 meets the constant
// lower bound of the tolerated-failure interval) and guards degenerate,
// exactly as the commit EFSM's small-f factors do.
func TestEFSMGenericInSuccessorListLength(t *testing.T) {
	base := generateEFSM(t, 4)
	baseStruct := efsmStructure(base)
	for _, s := range []int{8, 16} {
		e := generateEFSM(t, s)
		if got := efsmStructure(e); got != baseStruct {
			t.Errorf("s=%d: EFSM structure differs from s=4:\n--- s=4:\n%s\n--- s=%d:\n%s", s, baseStruct, s, got)
		}
	}
}

// generateEFSM generalises the registry's family member for s from a
// generation of its own.
func generateEFSM(t *testing.T, s int) *core.EFSM {
	t.Helper()
	entry, err := models.Get("chord")
	if err != nil {
		t.Fatal(err)
	}
	efsm, err := entry.EFSM(context.Background(), s)
	if err != nil {
		t.Fatalf("GenerateEFSM(s=%d): %v", s, err)
	}
	return efsm
}
