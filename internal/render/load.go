package render

import (
	"fmt"

	"asagen/internal/core"
)

// MachineFromDocument rebuilds an executable machine representation from an
// XML diagram document, closing the artefact loop: a machine rendered with
// XMLRenderer, shipped between tools or hosts, can be loaded and executed
// by the runtime without access to the abstract model — the paper's
// dynamic-deployment direction (§4.3) without on-the-fly compilation.
//
// Component metadata is not carried by the diagram format, so the loaded
// machine has state names but nil vectors; execution and rendering to
// text/DOT work, regeneration of Fig. 14 commentary does not.
func MachineFromDocument(doc *XMLDiagram) (*core.StateMachine, error) {
	if doc == nil {
		return nil, fmt.Errorf("render: nil diagram document")
	}
	if len(doc.States) == 0 {
		return nil, fmt.Errorf("render: diagram has no states")
	}

	machine := &core.StateMachine{
		ModelName: doc.Model,
		Parameter: doc.Parameter,
		Messages:  append([]string(nil), doc.Messages...),
	}
	// Every renderer and the runtime walk the machine in message order,
	// so an edge on a message the diagram does not declare, or a message
	// declared twice, would be dropped or doubled there.
	declared := make(map[string]bool, len(doc.Messages))
	for _, msg := range doc.Messages {
		if declared[msg] {
			return nil, fmt.Errorf("render: message %q is declared twice", msg)
		}
		declared[msg] = true
	}
	byID := make(map[string]*core.State, len(doc.States))
	for _, xs := range doc.States {
		if xs.ID == "" {
			return nil, fmt.Errorf("render: state %q has no id", xs.Name)
		}
		if _, dup := byID[xs.ID]; dup {
			return nil, fmt.Errorf("render: duplicate state id %q", xs.ID)
		}
		s := &core.State{
			Name:        xs.Name,
			Final:       xs.Final,
			Transitions: make(map[string]*core.Transition),
			Annotations: append([]string(nil), xs.Annotations...),
			MergedNames: []string{xs.Name},
		}
		byID[xs.ID] = s
		machine.States = append(machine.States, s)
		if xs.Start {
			if machine.Start != nil {
				return nil, fmt.Errorf("render: multiple start states")
			}
			machine.Start = s
		}
		if xs.Final {
			machine.Finish = s
		}
	}
	if machine.Start == nil {
		return nil, fmt.Errorf("render: diagram has no start state")
	}

	for _, e := range doc.Edges {
		from, ok := byID[e.From]
		if !ok {
			return nil, fmt.Errorf("render: edge from unknown state %q", e.From)
		}
		to, ok := byID[e.To]
		if !ok {
			return nil, fmt.Errorf("render: edge to unknown state %q", e.To)
		}
		if e.Message == "" {
			return nil, fmt.Errorf("render: edge %s->%s has no message", e.From, e.To)
		}
		if !declared[e.Message] {
			return nil, fmt.Errorf("render: edge %s->%s on %q: the message is not one of the diagram's messages", e.From, e.To, e.Message)
		}
		if _, dup := from.Transitions[e.Message]; dup {
			return nil, fmt.Errorf("render: state %q has two transitions for %q", from.Name, e.Message)
		}
		from.Transitions[e.Message] = &core.Transition{
			Message: e.Message,
			Target:  to,
			Actions: append([]string(nil), e.Actions...),
		}
	}

	machine.Stats = core.Stats{
		InitialStates:   len(machine.States),
		ReachableStates: len(machine.States),
		FinalStates:     len(machine.States),
	}
	return machine, nil
}

// LoadMachineXML parses an XML diagram document and rebuilds the machine.
func LoadMachineXML(data []byte) (*core.StateMachine, error) {
	doc, err := ParseXML(data)
	if err != nil {
		return nil, err
	}
	return MachineFromDocument(doc)
}
