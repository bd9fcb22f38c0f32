package render

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"asagen/internal/core"
)

// The Go renderer parses nothing it writes: goWriter's gate (GoNames,
// check, ref) admits a model string into a slot only where the file then
// parses and type-checks. The libraries that could check the whole file
// are the oracles of that claim, here and nowhere in product code.

// parses is the check the renderer ran on every artefact until the gate
// replaced it, in the mode gofmt parses with.
func parses(src []byte) (*token.FileSet, *ast.File, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "", src, parser.ParseComments|parser.SkipObjectResolution)
	return fset, file, err
}

// compiles holds src to everything short of a compiler back end: it
// parses, gofmt has nothing to change in it, and it type-checks (it
// imports nothing, so there is nothing to resolve).
func compiles(src []byte) error {
	fset, file, err := parses(src)
	if err != nil {
		return err
	}
	if formatted, err := format.Source(src); err != nil {
		return err
	} else if !bytes.Equal(src, formatted) {
		return errors.New("not gofmt's fixed point: " + firstDifference(src, formatted))
	}
	_, err = (&types.Config{}).Check(file.Name.Name, fset, []*ast.File{file}, nil)
	return err
}

// hostile is a two-state machine and a package name built from one string
// per model-controlled slot of the Go artefact, plus the structural faults
// a hand-built machine can carry.
type hostile struct {
	model, component, msg1, msg2, state1, state2, note, act1, act2, pkg, act3 string
	faults                                                                    uint16
}

const (
	nilTarget     uint16 = 1 << iota // an edge with no target
	ghostTarget                      // an edge to a state the machine does not list
	ghostStart                       // Start outside States
	ghostFinish                      // Finish outside States
	withFinish                       // Finish is the second state
	noMessages                       // empty Messages
	customPackage                    // the package is pkg, not derived
	repeatedState                    // the first state is listed twice
	allFaults     = repeatedState<<1 - 1
)

var benign = hostile{model: "m", component: "on", msg1: "GO", msg2: "STOP", state1: "T", state2: "F",
	note: "a note", act1: "->x", act2: "->y", pkg: "p", act3: "->z"}

// slots addresses the string slots by position, for tables and seeds.
func (h *hostile) slots() []*string {
	return []*string{&h.model, &h.component, &h.msg1, &h.msg2, &h.state1, &h.state2, &h.note, &h.act1, &h.act2, &h.pkg, &h.act3}
}

var slotNames = []string{"model", "component", "msg1", "msg2", "state1", "state2", "note", "act1", "act2", "pkg", "act3"}

// with returns h with one slot replaced.
func (h hostile) with(slot, text string) hostile {
	for i, name := range slotNames {
		if name == slot {
			*h.slots()[i] = text
			return h
		}
	}
	panic("no slot " + slot)
}

// faulty returns h with the faults added.
func (h hostile) faulty(faults uint16) hostile {
	h.faults |= faults
	return h
}

// build returns the machine and the package name to write it in; "" has
// the writer derive one.
func (h hostile) build() (*core.StateMachine, string) {
	state := func(name string) *core.State {
		return &core.State{Name: name, Transitions: map[string]*core.Transition{}, MergedNames: []string{name}}
	}
	has := func(fault uint16) bool { return h.faults&fault != 0 }
	a, b, ghost := state(h.state1), state(h.state2), state("ghost")
	a.Annotations = []string{h.note}
	m := &core.StateMachine{ModelName: h.model, Parameter: 3, Messages: []string{h.msg1, h.msg2},
		Components: []core.StateComponent{core.NewBoolComponent(h.component)},
		States:     []*core.State{a, b}, Start: a}
	a.Transitions[h.msg1] = &core.Transition{Message: h.msg1, Target: b, Actions: []string{h.act1, h.act2}}
	b.Transitions[h.msg2] = &core.Transition{Message: h.msg2, Target: a, Actions: []string{h.act2, h.act3}}
	switch {
	case has(nilTarget):
		b.Transitions[h.msg1] = &core.Transition{Message: h.msg1}
	case has(ghostTarget):
		b.Transitions[h.msg1] = &core.Transition{Message: h.msg1, Target: ghost}
	}
	if has(ghostStart) {
		m.Start = ghost
	}
	if has(withFinish) {
		b.Final, m.Finish = true, b
	}
	if has(ghostFinish) {
		m.Finish = ghost
	}
	if has(noMessages) {
		m.Messages = nil
	}
	if has(repeatedState) {
		m.States = append(m.States, a)
	}
	if has(customPackage) {
		return m, h.pkg
	}
	return m, ""
}

// hostileText is what go/scanner, gofmt or go/types object to in one slot
// or another: the faults TestParseCheckModesAgree planted in comments, and
// text that is no identifier, collides, or ends what it was placed in.
var hostileText = []string{
	"\x00", "\xff", "\ufeff", "a\rb", "a\nb", "ok\nStateInjected", "a\fb", "line :0", "\tline :0", "/*", "*/", "+build x", "go:build x",
	"", " ", "_", "-", "func", "two words", "Send(", "a b", "a_b", "1", "é", "\u00a0", "\u2028", "``q''", "# h", "- item", "[l]: http://x",
	"ReceiveGo", "SendY", "State_F", "Receive", "STOP", "F", "->y",
}

// gateCase names one hostile machine.
type gateCase struct {
	name string
	hostile
}

// gateCorpus is every structural fault, every hostile text in every slot,
// and the machines the parse check let through although they do not
// compile, one per kind of derived name.
func gateCorpus() []gateCase {
	corpus := []gateCase{
		{"benign", benign},
		{"colliding states", benign.with("state1", "a b").with("state2", "a_b")},
		{"colliding actions", benign.with("act1", "->x y").with("act2", "->x_y")},
		{"colliding messages", benign.with("msg1", "a b").with("msg2", "a_b")},
		{"dispatcher", benign.with("msg1", "-")},
		{"blank package", benign.with("pkg", "_").faulty(customPackage)},
		{"derived package", benign.with("model", "日本 語")},
		{"same action twice", benign.with("act3", "->y")},
		{"same state twice", benign.faulty(repeatedState)},
		{"same message twice", benign.with("msg2", "GO")},
		{"everything at once", benign.faulty(allFaults)},
		{"finish, no messages", benign.faulty(withFinish | noMessages)},
		{"bare arrow action", benign.with("act3", "->")},
		{"action without arrow", benign.with("act3", "vote")},
		{"action of blanks", benign.with("act3", "-> ")},
		// Either side of go/printer's 100 bytes for a one-line function.
		{"finish fits", benign.with("state2", strings.Repeat("é", 21)).faulty(withFinish)},
		{"finish too long", benign.with("state2", strings.Repeat("é", 21)+"x").faulty(withFinish)},
		{"stub fits", benign.with("act3", "->"+strings.Repeat("é", 37)+"x")},
		{"stub too long", benign.with("act3", "->"+strings.Repeat("é", 38))},
	}
	for fault := uint16(1); fault < allFaults; fault <<= 1 {
		corpus = append(corpus, gateCase{fmt.Sprintf("fault %#x", fault), benign.faulty(fault)})
	}
	for _, slot := range slotNames {
		for _, text := range hostileText {
			corpus = append(corpus, gateCase{fmt.Sprintf("%s = %q", slot, text), benign.with(slot, text).faulty(customPackage)})
		}
	}
	return corpus
}

// commentSeeds are the texts the one-pass comment gate hands to its slow
// path: byte order marks, invalid UTF-8, +build lines and a NUL before a
// line break.
var commentSeeds = []string{"\ufeff", "x\ufeffy", "\xef\xbb", "a\xc3", "\xed\xa0\x80", "+build", " +build x", "\t+build\t", "+buildx", "a\x00b\nc", "\x00\r"}

// FuzzGoSourceGate is the licence for rendering without a parse: whatever
// the gate lets through, in any slot and under any structural fault,
// go/parser (with comments), gofmt and go/types accept as it stands. The
// comment gate also agrees with its four-scan reference on every slot.
//
//	go test ./internal/render -run='^$' -fuzz=FuzzGoSourceGate -fuzztime=5m
func FuzzGoSourceGate(f *testing.F) {
	for _, h := range gateCorpus() {
		f.Add(h.model, h.component, h.msg1, h.msg2, h.state1, h.state2, h.note, h.act1, h.act2, h.pkg, h.act3, h.faults)
	}
	for _, text := range commentSeeds {
		h := benign.with("note", text).with("model", text)
		f.Add(h.model, h.component, h.msg1, h.msg2, h.state1, h.state2, h.note, h.act1, h.act2, h.pkg, h.act3, h.faults)
	}
	f.Fuzz(func(t *testing.T, model, component, msg1, msg2, state1, state2, note, act1, act2, pkg, act3 string, faults uint16) {
		h := hostile{model, component, msg1, msg2, state1, state2, note, act1, act2, pkg, act3, faults}
		for _, s := range h.slots() {
			if got, want := fmt.Sprint(CommentText(*s)), fmt.Sprint(refCommentText(*s)); got != want {
				t.Fatalf("CommentText(%q) = %s, want %s", *s, got, want)
			}
		}
		src, err := goSource(h.build())
		if err != nil {
			return
		}
		if err := compiles(src); err != nil {
			t.Fatalf("the gate admitted %+v, and: %v\n%s", h, err, src)
		}
	})
}

// TestGateAgreesWithParser: the gate refuses what the libraries refuse and
// nothing else, on every emitted source of the sweep, the edge machines
// and the gate corpus. The one thing it refuses alone is a line feed in
// comment text that goes on as valid Go: no oracle can see that the next
// line was not the renderer's.
func TestGateAgreesWithParser(t *testing.T) {
	type emission struct {
		pkg string
		m   *core.StateMachine
	}
	corpus := map[string]emission{}
	for name, m := range allMachines(t) {
		corpus[name] = emission{"", m}
	}
	for _, c := range gateCorpus() {
		m, pkg := c.build()
		corpus[c.name] = emission{pkg, m}
	}
	accepted := 0
	for name, e := range corpus {
		src, gate := goSource(e.m, e.pkg)
		oracle := compiles(src)
		if gate == nil {
			accepted++
		}
		alone := gate != nil && strings.Contains(gate.Error(), "line break")
		if (gate == nil) != (oracle == nil) && !alone {
			t.Errorf("%s: gate err = %v, oracle err = %v", name, gate, oracle)
		}
	}
	if accepted == 0 || accepted == len(corpus) {
		t.Errorf("%d of %d emissions accepted: the corpus must hold both verdicts", accepted, len(corpus))
	}
}

// TestRenderAllocations: a render allocates its artefact's bytes once,
// sized from the machine's table, and the few fragments it builds per
// message or per machine; the Go source adds its maps, its doc comments
// and the state constants, cut from one string. A piecewise writer that
// creeps back — a string per state or per edge, a buffer that regrows —
// fails here, and so does a whole-file check of the Go source: go/parser
// built 0.14 objects per source byte (3 548 and 211 310 at these sizes).
func TestRenderAllocations(t *testing.T) {
	for _, tc := range []struct {
		format  string
		r4, r46 int
	}{
		{"text", 1, 1},
		{"dot", 7, 7},
		{"xml", 6, 6},
		{"go", 240, 240}, // 194 and 200 (211 under -race) with Go 1.24
		{"doc", 3, 3},
	} {
		render := func(m *core.StateMachine) (Artifact, error) { return GoSource(m, "bench") }
		if tc.format != "go" {
			render = must(New(tc.format)).Render
		}
		for _, size := range []struct{ r, most int }{{4, tc.r4}, {46, tc.r46}} {
			m := commitMachine(t, size.r)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := render(m); err != nil {
					t.Fatal(err)
				}
			})
			if int(allocs) > size.most {
				t.Errorf("%s r=%d: %v allocs per render of %d states, want at most %d", tc.format, size.r, allocs, len(m.States), size.most)
			}
		}
	}
}
