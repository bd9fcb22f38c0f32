package main

import (
	"fmt"
	"math/rand"

	"asagen"
)

// specFamily builds one seeded model spec and its one-rule edit through
// the public SDK builder. The edit appends the action
// "-><editAction>-<tag>" to one rule and leaves components, messages and
// the start state alone, so the server may regenerate incrementally.
type specFamily struct {
	name       string
	editAction string
	build      func(name, tag string, seed int64) (base, edited *asagen.ModelSpec)
}

var specFamilies = []specFamily{
	{"grid", "notify", func(name, tag string, seed int64) (*asagen.ModelSpec, *asagen.ModelSpec) {
		return gridSpec(name, tag, seed, false), gridSpec(name, tag, seed, true)
	}},
	{"termination", "report", func(name, tag string, _ int64) (*asagen.ModelSpec, *asagen.ModelSpec) {
		return terminationSpec(name, tag, false), terminationSpec(name, tag, true)
	}},
	{"lease", "audit", func(name, tag string, _ int64) (*asagen.ModelSpec, *asagen.ModelSpec) {
		return leaseSpec(name, tag, false), leaseSpec(name, tag, true)
	}},
}

// withEdit appends the edit's action when the spec is the edited one.
func withEdit(actions []string, edited bool, action, tag string) []string {
	if edited {
		actions = append(actions, "->"+action+"-"+tag)
	}
	return actions
}

const (
	gridParam     = 3  // four counters over 0…3: 256 states plus the finish state
	gridCarveOuts = 24 // single-state rules ahead of each general rule
)

// gridSpec is shaped like bench_test.go's regenDoc: four bounded counters
// with increment and decrement messages plus a finish rule, each message
// carrying a tail of single-state carve-outs so that evaluating the
// transition function is what exploration costs. The seed moves the
// carve-outs around the grid; the edit touches only FIN, one effect
// column out of nine.
func gridSpec(name, tag string, seed int64, edited bool) *asagen.ModelSpec {
	rng := rand.New(rand.NewSource(seed))
	s := asagen.NewModelSpec(name).
		Description("seeded counter grid "+tag).
		Parameter("counter bound", gridParam)
	var msgs []string
	for i := 0; i < 4; i++ {
		s.Int(fmt.Sprintf("c%d", i), asagen.Param())
		msgs = append(msgs, fmt.Sprintf("INC%d", i), fmt.Sprintf("DEC%d", i))
	}
	s.Messages(append(msgs, "FIN")...)
	carveOuts := func(msg string) {
		offsets := [4]int{rng.Intn(gridParam + 1), rng.Intn(gridParam + 1), rng.Intn(gridParam + 1), rng.Intn(gridParam + 1)}
		for k := 0; k < gridCarveOuts; k++ {
			r := s.Rule(msg)
			for c, off := range offsets {
				r.When(fmt.Sprintf("c%d", c), "==", asagen.Lit((k+off*(c+1))%(gridParam+1)))
			}
			r.Do(fmt.Sprintf("->carve%d-%s", k, tag))
		}
	}
	for i := 0; i < 4; i++ {
		c := fmt.Sprintf("c%d", i)
		carveOuts(fmt.Sprintf("INC%d", i))
		s.Rule(fmt.Sprintf("INC%d", i)).When(c, "<", asagen.Param()).Add(c, 1)
		carveOuts(fmt.Sprintf("DEC%d", i))
		s.Rule(fmt.Sprintf("DEC%d", i)).When(c, ">", asagen.Lit(0)).Add(c, -1)
	}
	fin := s.Rule("FIN")
	for i := 0; i < 4; i++ {
		fin.When(fmt.Sprintf("c%d", i), "==", asagen.Param())
	}
	fin.Do(withEdit([]string{"->done"}, edited, "notify", tag)...).Finish()
	return s
}

// terminationSpec is the repository's declarative port of the
// termination-detection adapter (spec_test.go pins it byte-identical to
// the hand-written model); the edit adds an action to the idle report.
func terminationSpec(name, tag string, edited bool) *asagen.ModelSpec {
	s := asagen.NewModelSpec(name).
		ModelName("termination-"+tag).
		Description("declarative port of the termination-detection scenario").
		Parameter("fan-out bound", 4, 1, 2, 4, 8).
		Bool("active").
		Int("outstanding", asagen.Param()).
		Messages("TASK", "SPAWN", "CHILD_DONE", "IDLE")
	s.Rule("TASK").
		When("active", "==", asagen.Lit(0)).
		Set("active", asagen.Lit(1)).
		Note("Activated by an incoming task.")
	s.Rule("SPAWN").
		When("active", "==", asagen.Lit(1)).
		When("outstanding", "<", asagen.Param()).
		Add("outstanding", 1).
		Do("->task").
		Note("Delegate a child task and count it outstanding.")
	s.Rule("CHILD_DONE").
		When("outstanding", "==", asagen.Lit(1)).
		When("active", "==", asagen.Lit(0)).
		Add("outstanding", -1).
		Do("->done").
		Note("One delegated task completed.", "Idle with no outstanding children: report completion.").
		Finish()
	s.Rule("CHILD_DONE").
		When("outstanding", ">=", asagen.Lit(1)).
		Add("outstanding", -1).
		Note("One delegated task completed.")
	s.Rule("IDLE").
		When("active", "==", asagen.Lit(1)).
		When("outstanding", "==", asagen.Lit(0)).
		Set("active", asagen.Lit(0)).
		Do(withEdit([]string{"->done"}, edited, "report", tag)...).
		Note("Local work finished.", "No outstanding children: report completion.").
		Finish()
	s.Rule("IDLE").
		When("active", "==", asagen.Lit(1)).
		Set("active", asagen.Lit(0)).
		Note("Local work finished.")
	s.DescribeWhen("Process is active.", asagen.When("active", "==", asagen.Lit(1))).
		DescribeWhen("Process is idle.", asagen.When("active", "==", asagen.Lit(0))).
		DescribeWhen("{outstanding} delegated tasks outstanding (bound {param}).").
		EFSMLabel("ACTIVE", asagen.When("active", "==", asagen.Lit(1))).
		EFSMLabel("IDLE_WAITING").
		EFSMGuard("outstanding", "SPAWN", "CHILD_DONE", "IDLE").
		EFSMCounter("SPAWN", "outstanding", 1).
		EFSMCounter("CHILD_DONE", "outstanding", -1).
		EFSMSymbol(asagen.Lit(0), "0").
		EFSMSymbol(asagen.Lit(1), "1").
		EFSMSymbol(asagen.Param(), "k").
		EFSMSymbol(asagen.Param().Plus(-1), "k-1")
	return s
}

// leaseSpec is examples/customspec's leader-lease lifecycle; the edit
// adds an action to the expiry rule.
func leaseSpec(name, tag string, edited bool) *asagen.ModelSpec {
	s := asagen.NewModelSpec(name).
		ModelName("lease-"+tag).
		Description("leader election by unanimous lease grants from n peers").
		Parameter("peer count", 3, 2, 3, 5, 8).
		MinParam(2).
		Bool("leader").
		Int("grants", asagen.Param()).
		Messages("GRANT", "DENY", "EXPIRE")
	s.Rule("GRANT").
		When("leader", "==", asagen.Lit(0)).
		When("grants", "==", asagen.Param().Plus(-1)).
		Add("grants", 1).
		Set("leader", asagen.Lit(1)).
		Do("->lead").
		Note("The final grant arrived: the lease is unanimous, announce leadership.")
	s.Rule("GRANT").
		When("leader", "==", asagen.Lit(0)).
		Add("grants", 1).
		Note("Count one more lease grant.")
	s.Rule("DENY").
		When("leader", "==", asagen.Lit(0)).
		Do("->abort").
		Note("A peer denied the lease: abandon this campaign.").
		Finish()
	s.Rule("EXPIRE").
		When("leader", "==", asagen.Lit(1)).
		Do(withEdit([]string{"->release"}, edited, "audit", tag)...).
		Note("The lease expired: step down and end the lifecycle.").
		Finish()
	s.DescribeWhen("Campaigning: collecting lease grants.", asagen.When("leader", "==", asagen.Lit(0))).
		DescribeWhen("Leading under a unanimous lease.", asagen.When("leader", "==", asagen.Lit(1))).
		DescribeWhen("{grants} of {param} grants collected.").
		EFSMLabel("LEADER", asagen.When("leader", "==", asagen.Lit(1))).
		EFSMLabel("CAMPAIGNING").
		EFSMGuard("grants", "GRANT").
		EFSMCounter("GRANT", "grants", 1).
		EFSMSymbol(asagen.Param(), "n").
		EFSMSymbol(asagen.Param().Plus(-1), "n-1")
	return s
}
