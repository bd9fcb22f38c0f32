package render

import (
	"encoding/xml"
	"fmt"

	"asagen/internal/core"
)

// The XML format's reflective counterpart. Document is the interchange
// structure encoding/xml marshals to the bytes renderXML writes
// (TestXMLMatchesMarshalIndent, FuzzXMLMatchesMarshalIndent) and
// unmarshals back; DiagramMachine builds the machine a diagram describes,
// so tests can write hostile machines as diagrams and read artefacts back.

// XMLDiagram is the root element of the diagram interchange document.
type XMLDiagram struct {
	XMLName   xml.Name        `xml:"stateMachineDiagram"`
	Model     string          `xml:"model,attr"`
	Parameter int             `xml:"parameter,attr"`
	Messages  []string        `xml:"messages>message"`
	States    []XMLState      `xml:"states>state"`
	Edges     []XMLTransition `xml:"transitions>transition"`
}

// XMLState is one diagram node.
type XMLState struct {
	ID          string   `xml:"id,attr"`
	Name        string   `xml:"name,attr"`
	Start       bool     `xml:"start,attr,omitempty"`
	Final       bool     `xml:"final,attr,omitempty"`
	Annotations []string `xml:"annotation,omitempty"`
}

// XMLTransition is one diagram edge.
type XMLTransition struct {
	From    string   `xml:"from,attr"`
	To      string   `xml:"to,attr"`
	Message string   `xml:"message,attr"`
	Phase   bool     `xml:"phase,attr,omitempty"`
	Actions []string `xml:"action,omitempty"`
}

// Document builds the interchange structure of m. Marshalled by
// xml.MarshalIndent (two-space indent, under xml.Header, newline-ended) it
// is what the xml format writes.
func Document(m *core.StateMachine) *XMLDiagram {
	doc := &XMLDiagram{
		Model:     m.ModelName,
		Parameter: m.Parameter,
		Messages:  append([]string(nil), m.Messages...),
	}
	t, _ := m.Table()
	ids := make([]string, len(m.States))
	for i, s := range m.States {
		ids[i] = fmt.Sprintf("s%d", i)
		doc.States = append(doc.States, XMLState{
			ID:          ids[i],
			Name:        s.Name,
			Start:       s == m.Start,
			Final:       s.Final,
			Annotations: append([]string(nil), s.Annotations...),
		})
	}
	for i := range m.States {
		for _, e := range t.Out(i) {
			to := "" // a target that is not one of the machine's states has no id
			if e.To >= 0 {
				to = ids[e.To]
			}
			doc.Edges = append(doc.Edges, XMLTransition{
				From:    ids[i],
				To:      to,
				Message: m.Messages[e.Msg],
				Phase:   e.IsPhase(),
				Actions: append([]string(nil), e.Actions...),
			})
		}
	}
	return doc
}

// DiagramMachine builds the machine a diagram describes: state names
// without component vectors, each state its own only merged name, the
// diagram's messages in order, and every state counted at every stage.
// The diagram must be one a machine could have written — unique ids, one
// start state, every edge on a declared, non-empty message between listed
// states, at most one per state and message, no message declared twice;
// tests skip any other.
func DiagramMachine(doc *XMLDiagram) *core.StateMachine {
	m := &core.StateMachine{ModelName: doc.Model, Parameter: doc.Parameter, Messages: doc.Messages}
	byID := map[string]*core.State{}
	for _, xs := range doc.States {
		s := &core.State{Name: xs.Name, Final: xs.Final, Transitions: map[string]*core.Transition{},
			Annotations: xs.Annotations, MergedNames: []string{xs.Name}}
		byID[xs.ID] = s
		m.States = append(m.States, s)
		if xs.Start {
			m.Start = s
		}
		if xs.Final {
			m.Finish = s
		}
	}
	for _, e := range doc.Edges {
		byID[e.From].Transitions[e.Message] = &core.Transition{Message: e.Message, Target: byID[e.To], Actions: e.Actions}
	}
	n := len(m.States)
	m.Stats = core.Stats{InitialStates: n, ReachableStates: n, FinalStates: n}
	return m
}

// loadXML reads an xml artefact back into the machine it describes.
func loadXML(data []byte) (*core.StateMachine, error) {
	var doc XMLDiagram
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return DiagramMachine(&doc), nil
}
