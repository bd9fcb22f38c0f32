package render_test

import (
	"encoding/xml"
	"slices"
	"testing"

	"asagen/internal/core"
	"asagen/internal/render"
)

// TestTableAgreesWithTheMaps: the transition table every renderer walks
// lists, per state, the transitions State.Transitions holds, in
// SortedMessages order, each at its target's position; for every sweep
// member and for a machine rebuilt from one's xml artefact.
func TestTableAgreesWithTheMaps(t *testing.T) {
	machines := sweepMachines(t)
	xmlFormat, err := render.New("xml")
	if err != nil {
		t.Fatal(err)
	}
	art, err := xmlFormat.Render(machines["commit/r=7"])
	if err != nil {
		t.Fatal(err)
	}
	var doc render.XMLDiagram
	if err := xml.Unmarshal(art.Data, &doc); err != nil {
		t.Fatal(err)
	}
	machines["commit/r=7 loaded"] = render.DiagramMachine(&doc)
	if len(machines) != 27 {
		t.Fatalf("%d machines, want the 26 sweep members and one loaded", len(machines))
	}
	for name, m := range machines {
		table, err := m.Table()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _ := m.Table(); again != table {
			t.Errorf("%s: the table was computed twice", name)
		}
		if m.States[table.Start] != m.Start || (m.Finish == nil) != (table.Finish < 0) ||
			(m.Finish != nil && m.States[table.Finish] != m.Finish) {
			t.Errorf("%s: start %d or finish %d is not the machine's", name, table.Start, table.Finish)
		}
		edges := 0
		for i, s := range m.States {
			out := table.Out(i)
			msgs := s.SortedMessages(m.Messages)
			if len(out) != len(msgs) {
				t.Errorf("%s: state %s has %d edges in the table, %d in its map", name, s.Name, len(out), len(msgs))
				continue
			}
			for k, e := range out {
				if m.Messages[e.Msg] != msgs[k] || e.Transition != s.Transition(msgs[k]) {
					t.Errorf("%s: state %s, edge %d is %q, want %q", name, s.Name, k, m.Messages[e.Msg], msgs[k])
				}
				if m.States[e.To] != e.Target || slices.Index(m.States, e.Target) != int(e.To) {
					t.Errorf("%s: state %s, edge %q: To = %d is not its target's position", name, s.Name, msgs[k], e.To)
				}
			}
			edges += len(out)
		}
		if edges != m.TransitionCount() || table.Sizes.Edges != edges || table.Sizes.States != len(m.States) {
			t.Errorf("%s: %d edges, sizes %+v, machine has %d transitions", name, edges, table.Sizes, m.TransitionCount())
		}
	}
}

// The table of a hand-built machine with no states is empty, not an error.
func TestTableOfAnEmptyMachine(t *testing.T) {
	table, err := (&core.StateMachine{}).Table()
	if err != nil || table.Start != -1 || table.Finish != -1 || table.Sizes != (core.Sizes{}) {
		t.Errorf("table %+v, err %v", table, err)
	}
}
