package spec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"asagen/internal/core"
)

// editableDoc is the randomized-edit base: a two-counter protocol with
// enough rules per message that random adds, removes and parameter sweeps
// keep producing valid, distinct documents.
func editableDoc() Doc {
	return Doc{
		Name:         "editable",
		DefaultParam: 5,
		Components: []Component{
			{Name: "pending", Kind: KindInt, Max: ParamValue(0)},
			{Name: "acked", Kind: KindInt, Max: ParamValue(0)},
			{Name: "open", Kind: KindBool},
		},
		Messages: []string{"REQ", "ACK", "CLOSE", "RESET"},
		Rules: []Rule{
			{
				Message: "REQ",
				When: []Cond{
					{Component: "open", Op: OpEq, Value: Lit(1)},
					{Component: "pending", Op: OpLt, Value: ParamValue(0)},
				},
				Set:     []Assign{{Component: "pending", Add: 1}},
				Actions: []string{"->req"},
			},
			{
				Message: "ACK",
				When: []Cond{
					{Component: "pending", Op: OpGt, Value: Lit(0)},
				},
				Set: []Assign{
					{Component: "pending", Add: -1},
					{Component: "acked", Add: 1},
				},
			},
			{
				Message: "CLOSE",
				When: []Cond{
					{Component: "acked", Op: OpGe, Value: ParamValue(-1)},
				},
				Actions: []string{"->closed"},
				Finish:  true,
			},
			{
				Message: "RESET",
				Set: []Assign{
					{Component: "pending", Set: ptrVal(Lit(0))},
					{Component: "acked", Set: ptrVal(Lit(0))},
					{Component: "open", Set: ptrVal(Lit(1))},
				},
				Actions: []string{"->reset"},
			},
		},
		Start: []Value{Lit(0), Lit(0), Lit(1)},
	}
}

func ptrVal(v Value) *Value { return &v }

// randomEdit mutates a copy of the document with one of the edit kinds
// the incremental path is specified for: rule added, rule removed, or a
// parameter-affine value swept inside an existing rule. Describe edits
// are mixed in to exercise the empty-delta rebuild path.
func randomEdit(rng *rand.Rand, d Doc) Doc {
	d.Rules = append([]Rule(nil), d.Rules...)
	msgs := d.Messages
	switch rng.Intn(4) {
	case 0: // add a guarded no-progress rule in front of some rule set
		msg := msgs[rng.Intn(len(msgs))]
		d.Rules = append(d.Rules, Rule{
			Message: msg,
			When: []Cond{
				{Component: "acked", Op: OpEq, Value: Lit(rng.Intn(4))},
				{Component: "pending", Op: OpLe, Value: Lit(rng.Intn(4))},
			},
			Set:     []Assign{{Component: "open", Set: ptrVal(Lit(rng.Intn(2)))}},
			Actions: []string{fmt.Sprintf("->edit%d", rng.Intn(1000))},
		})
	case 1: // remove a rule (keep at least one so CLOSE stays plausible)
		if len(d.Rules) > 2 {
			i := rng.Intn(len(d.Rules))
			d.Rules = append(d.Rules[:i], d.Rules[i+1:]...)
		}
	case 2: // sweep a guard threshold in one rule
		i := rng.Intn(len(d.Rules))
		r := d.Rules[i]
		r.When = append([]Cond(nil), r.When...)
		r.When = append(r.When, Cond{
			Component: "pending",
			Op:        []string{OpLt, OpLe, OpGt, OpGe, OpNe}[rng.Intn(5)],
			Value:     ParamValue(-rng.Intn(3)),
		})
		d.Rules[i] = r
	default: // documentation-only edit
		d.Describe = append(append([]DescribeRule(nil), d.Describe...), DescribeRule{
			When: []Cond{{Component: "open", Op: OpEq, Value: Lit(1)}},
			Text: fmt.Sprintf("open, pending {pending} (rev %d)", rng.Intn(1000)),
		})
	}
	return d
}

// TestDiffRegenerateDifferential is the randomized differential test: a
// chain of spec edits, each regenerated incrementally from the previous
// machine via Diff, must match from-scratch generation fingerprint for
// fingerprint at every step.
func TestDiffRegenerateDifferential(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			doc := editableDoc()
			compiled, err := Compile(doc)
			if err != nil {
				t.Fatalf("compile base: %v", err)
			}
			model, err := compiled.Model(0)
			if err != nil {
				t.Fatalf("model: %v", err)
			}
			cur, err := core.Generate(context.Background(), model)
			if err != nil {
				t.Fatalf("generate base: %v", err)
			}
			prevDoc := compiled.Doc()

			for step := 0; step < 6; step++ {
				nextDoc := randomEdit(rng, prevDoc)
				nextCompiled, err := Compile(nextDoc)
				if err != nil {
					// A random removal can orphan the document (e.g. no rules
					// left for a message is still valid, but guard against
					// future validation tightening): skip the edit.
					continue
				}
				delta := Diff(prevDoc, nextCompiled.Doc())
				nextModel, err := nextCompiled.Model(0)
				if err != nil {
					t.Fatalf("step %d: model: %v", step, err)
				}
				inc, err := core.Regenerate(context.Background(), cur, nextModel, delta)
				if err != nil {
					t.Fatalf("step %d: regenerate: %v", step, err)
				}
				fresh, err := core.Generate(context.Background(), nextModel)
				if err != nil {
					t.Fatalf("step %d: generate: %v", step, err)
				}
				if inc.Fingerprint() != fresh.Fingerprint() {
					t.Fatalf("step %d (delta %+v): incremental fingerprint %s != from-scratch %s",
						step, delta, inc.Fingerprint(), fresh.Fingerprint())
				}
				cur, prevDoc = inc, nextCompiled.Doc()
			}
		})
	}
}

func TestDiffClassification(t *testing.T) {
	base := mustCompileDoc(t, editableDoc())

	t.Run("identical docs yield empty delta", func(t *testing.T) {
		d := Diff(base, base)
		if d.Full || len(d.Messages) != 0 {
			t.Fatalf("delta = %+v, want empty", d)
		}
	})
	t.Run("component change is full", func(t *testing.T) {
		edited := editableDoc()
		edited.Components = append([]Component(nil), edited.Components...)
		edited.Components[0].Max = ParamValue(1)
		if d := Diff(base, mustCompileDoc(t, edited)); !d.Full {
			t.Fatalf("delta = %+v, want full", d)
		}
	})
	t.Run("message change is full", func(t *testing.T) {
		edited := editableDoc()
		edited.Messages = append(append([]string(nil), edited.Messages...), "EXTRA")
		if d := Diff(base, mustCompileDoc(t, edited)); !d.Full {
			t.Fatalf("delta = %+v, want full", d)
		}
	})
	t.Run("start change is full", func(t *testing.T) {
		edited := editableDoc()
		edited.Start = []Value{Lit(0), Lit(0), Lit(0)}
		if d := Diff(base, mustCompileDoc(t, edited)); !d.Full {
			t.Fatalf("delta = %+v, want full", d)
		}
	})
	t.Run("rule edit names only its message", func(t *testing.T) {
		edited := editableDoc()
		edited.Rules = append([]Rule(nil), edited.Rules...)
		edited.Rules[0].Actions = []string{"->req", "->log"}
		d := Diff(base, mustCompileDoc(t, edited))
		if d.Full || len(d.Messages) != 1 || d.Messages[0] != "REQ" {
			t.Fatalf("delta = %+v, want {Messages:[REQ]}", d)
		}
	})
	t.Run("rule reorder affects its message", func(t *testing.T) {
		edited := editableDoc()
		edited.Rules = append([]Rule(nil), edited.Rules...)
		extra := edited.Rules[1]
		extra.Set = nil
		edited.Rules = append(edited.Rules, extra) // second ACK rule
		d := Diff(base, mustCompileDoc(t, edited))
		if d.Full || len(d.Messages) != 1 || d.Messages[0] != "ACK" {
			t.Fatalf("delta = %+v, want {Messages:[ACK]}", d)
		}
	})
	t.Run("describe-only edit yields empty delta", func(t *testing.T) {
		edited := editableDoc()
		edited.Describe = []DescribeRule{{Text: "some doc"}}
		d := Diff(base, mustCompileDoc(t, edited))
		if d.Full || len(d.Messages) != 0 {
			t.Fatalf("delta = %+v, want empty", d)
		}
	})
	t.Run("metadata-only edit yields empty delta", func(t *testing.T) {
		edited := editableDoc()
		edited.Description = "renamed description"
		edited.SweepParams = []int{2, 3}
		d := Diff(base, mustCompileDoc(t, edited))
		if d.Full || len(d.Messages) != 0 {
			t.Fatalf("delta = %+v, want empty", d)
		}
	})
}

// TestDeltaBetweenEntries: what a replacement in place may reuse depends
// on both entries — a hand-written one on either side (a full delta) or two
// entries compiled from documents (their Diff).
func TestDeltaBetweenEntries(t *testing.T) {
	edited := editableDoc()
	edited.Rules = append([]Rule(nil), edited.Rules...)
	edited.Rules[0].Actions = []string{"->req", "->log"}
	next, err := Compile(edited)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(editableDoc())
	if err != nil {
		t.Fatal(err)
	}
	handWritten := func(e core.Entry) core.Entry {
		e.Spec = nil
		return e
	}
	for name, c := range map[string]struct{ prev, next core.Entry }{
		"no previous entry":           {core.Entry{}, next.Entry()},
		"hand-written previous entry": {handWritten(base.Entry()), next.Entry()},
		"hand-written next entry":     {base.Entry(), handWritten(next.Entry())},
		"hand-written on both sides":  {handWritten(base.Entry()), handWritten(next.Entry())},
	} {
		if d := Delta(c.prev, c.next); !d.Full {
			t.Errorf("%s: delta = %+v, want full", name, d)
		}
	}
	if d := Delta(base.Entry(), next.Entry()); d.Full || len(d.Messages) != 1 || d.Messages[0] != "REQ" {
		t.Errorf("two spec-defined entries: delta = %+v, want {Messages:[REQ]}", d)
	}
	if d := Delta(next.Entry(), base.Entry()); d.Full || len(d.Messages) != 1 || d.Messages[0] != "REQ" {
		t.Errorf("the edit undone: delta = %+v, want {Messages:[REQ]}", d)
	}
}

// TestDiffDerivedValueIsFull: a derived value may bound a component and
// every rule that names it, so changing one discards the old exploration.
func TestDiffDerivedValueIsFull(t *testing.T) {
	base := terminationDoc()
	base.Derived = []Derived{{Name: "half", Value: ParamValue(0), Div: 2}}
	for name, edit := range map[string]func(d *Doc){
		"its value":   func(d *Doc) { d.Derived[0].Value = ParamValue(1) },
		"its divisor": func(d *Doc) { d.Derived[0].Div = 3 },
		"its name":    func(d *Doc) { d.Derived[0].Name = "part" },
		"one added":   func(d *Doc) { d.Derived = append(d.Derived, Derived{Name: "whole", Value: ParamValue(0)}) },
		"all removed": func(d *Doc) { d.Derived = nil },
	} {
		edited := base
		edited.Derived = slices.Clone(base.Derived)
		edit(&edited)
		if got := Diff(mustCompileDoc(t, base), mustCompileDoc(t, edited)); !got.Full {
			t.Errorf("%s: delta %+v, want full", name, got)
		}
	}
}

// mustCompileDoc compiles and returns the default-filled document.
func mustCompileDoc(t *testing.T, d Doc) Doc {
	t.Helper()
	c, err := Compile(d)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c.Doc()
}

// TestDiffAgreesWithJSONEquality pins the structural Diff to what it
// replaced. Diff used to marshal both sides of every comparison and
// compare the bytes; each row is one edit of the termination document and
// the delta that version returned for it, recorded before it was deleted.
func TestDiffAgreesWithJSONEquality(t *testing.T) {
	full := core.ModelDelta{Full: true}
	only := func(msgs ...string) core.ModelDelta { return core.ModelDelta{Messages: msgs} }
	for _, c := range []struct {
		name string
		edit func(d *Doc)
		want core.ModelDelta
	}{
		{"nothing", func(d *Doc) {}, only()},
		{"an action added", func(d *Doc) { d.Rules[1].Actions = []string{"->task", "->log"} }, only("SPAWN")},
		{"a guard's value", func(d *Doc) { d.Rules[3].When[0].Value = Lit(2) }, only("CHILD_DONE")},
		{"a guard's operator", func(d *Doc) { d.Rules[3].When[0].Op = OpGt }, only("CHILD_DONE")},
		{"a guard removed", func(d *Doc) { d.Rules[0].When = nil }, only("TASK")},
		{"set from absent to a value", func(d *Doc) {
			d.Rules[1].Set = []Assign{{Component: "outstanding", Add: 1}, {Component: "active", Set: ptr(Lit(1))}}
		}, only("SPAWN")},
		{"set from a value to absent", func(d *Doc) { d.Rules[0].Set = []Assign{{Component: "active", Add: 1}} }, only("TASK")},
		{"set to another value", func(d *Doc) { d.Rules[5].Set = []Assign{{Component: "active", Set: ptr(Lit(1))}} }, only("IDLE")},
		{"set to the same value behind another pointer", func(d *Doc) {
			d.Rules[5].Set = []Assign{{Component: "active", Set: ptr(Lit(0))}}
		}, only()},
		{"an annotation", func(d *Doc) { d.Rules[0].Annotations = []string{"Woken."} }, only("TASK")},
		{"finish", func(d *Doc) { d.Rules[5].Finish = true }, only("IDLE")},
		{"two rules of one message reordered", func(d *Doc) { d.Rules[2], d.Rules[3] = d.Rules[3], d.Rules[2] }, only("CHILD_DONE")},
		{"neighbouring rules of two messages swapped", func(d *Doc) { d.Rules[0], d.Rules[1] = d.Rules[1], d.Rules[0] }, only()},
		{"a rule moved past another message's", func(d *Doc) { d.Rules[3], d.Rules[4] = d.Rules[4], d.Rules[3] }, only()},
		{"the last rule removed", func(d *Doc) { d.Rules = d.Rules[:5] }, only("IDLE")},
		{"a rule appended", func(d *Doc) {
			d.Rules = append(d.Rules, Rule{Message: "TASK", Actions: []string{"->late"}})
		}, only("TASK")},
		{"edits to two messages", func(d *Doc) {
			d.Rules[4].Finish, d.Rules[0].Actions = false, []string{"->woken"}
		}, only("TASK", "IDLE")},
		{"empty lists for absent ones", func(d *Doc) {
			d.Rules[0].Actions, d.Rules[3].Actions = []string{}, []string{}
			d.Rules = append(d.Rules, Rule{Message: "TASK", When: []Cond{}, Set: []Assign{}, Annotations: []string{}})
			d.Rules, d.Rules[0].Annotations = d.Rules[:6], append([]string{}, d.Rules[0].Annotations...)
		}, only()},
		{"describe", func(d *Doc) { d.Describe[0].Text = "Busy." }, only()},
		{"abstraction", func(d *Doc) { d.Abstraction.Symbols[2].Text = "n" }, only()},
		{"abstraction removed", func(d *Doc) { d.Abstraction = nil }, only()},
		{"description", func(d *Doc) { d.Description = "another line" }, only()},
		{"parameter metadata", func(d *Doc) { d.ParamName, d.DefaultParam, d.SweepParams = "k", 3, nil }, only()},
		{"a component's max", func(d *Doc) { d.Components[1].Max = ParamValue(1) }, full},
		{"a component's kind", func(d *Doc) { d.Components[0].Kind = KindInt }, full},
		{"a message added", func(d *Doc) { d.Messages = append(d.Messages, "PING") }, full},
		{"messages reordered", func(d *Doc) { d.Messages[0], d.Messages[1] = d.Messages[1], d.Messages[0] }, full},
		{"the zero start vector spelt out", func(d *Doc) { d.Start = []Value{Lit(0), Lit(0)} }, full},
		{"another start vector", func(d *Doc) { d.Start = []Value{Lit(1), Lit(0)} }, full},
		{"the model name", func(d *Doc) { d.ModelName = "other" }, full},
	} {
		edited := terminationDoc()
		c.edit(&edited)
		got := Diff(mustCompileDoc(t, terminationDoc()), mustCompileDoc(t, edited))
		if got.Full != c.want.Full || !equalStrings(got.Messages, c.want.Messages) {
			t.Errorf("%s: delta %+v, want %+v", c.name, got, c.want)
		}
	}

	// The one answer that moved: "start": [] and no start at all are both
	// the all-zero vector. Their JSON differs ([] and null), so this was a
	// full delta; the lists are equal, so it is an empty one.
	none, empty := terminationDoc(), terminationDoc()
	empty.Start = []Value{}
	if got := Diff(mustCompileDoc(t, none), mustCompileDoc(t, empty)); got.Full || len(got.Messages) != 0 {
		t.Errorf("an empty start vector for an absent one: delta %+v, want empty", got)
	}
}
