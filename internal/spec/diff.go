package spec

import (
	"slices"

	"asagen/internal/core"
)

// Delta returns the delta from prev to next, the entry that replaces it
// in place: Diff of the two documents when both entries were compiled from
// one, and a full delta when either is hand-written, about which a
// document says nothing.
func Delta(prev, next core.Entry) core.ModelDelta {
	oldDoc, oldOK := prev.Spec.(Doc)
	newDoc, newOK := next.Spec.(Doc)
	if !oldOK || !newOK {
		return core.ModelDelta{Full: true}
	}
	return Diff(oldDoc, newDoc)
}

// Diff compares an old and a new model document and returns the
// core.ModelDelta describing how a machine generated from old must be
// updated to obtain the machine for new. Both documents should be in
// compiled (default-filled) form, i.e. taken from Compiled.Doc.
//
// The comparison is syntactic and conservative:
//
//   - Any change to the declared structure — name, model name, derived
//     values, components, messages or start vector — returns a full delta:
//     the state space itself may differ, so nothing from the old
//     exploration can be trusted. (A derived value may bound a component,
//     and every rule that names it changes with it.)
//   - Otherwise the transition rules are compared message by message
//     (document order preserved, since the first matching rule fires); a
//     message whose rule list differs in any way — a rule added, removed,
//     reordered or edited, including a swept parameter value inside a
//     guard or assignment — is listed as affected.
//   - Changes confined to documentation, describe rules, abstraction
//     hints or parameter metadata yield an empty non-full delta: the
//     transition structure is intact and only the machine's derived
//     decoration needs rebuilding.
//
// The result feeds core.Regenerate, which re-explores only the frontier
// region reachable through the affected messages.
func Diff(oldDoc, newDoc Doc) core.ModelDelta {
	if oldDoc.Name != newDoc.Name ||
		oldDoc.ModelName != newDoc.ModelName ||
		!slices.Equal(oldDoc.Derived, newDoc.Derived) ||
		!slices.Equal(oldDoc.Components, newDoc.Components) ||
		!slices.Equal(oldDoc.Messages, newDoc.Messages) ||
		!slices.Equal(oldDoc.Start, newDoc.Start) {
		return core.ModelDelta{Full: true}
	}
	// The rules both documents begin and end with are in every message's
	// list on both sides; only what lies between them can tell two apart.
	a, b := oldDoc.Rules, newDoc.Rules
	for len(a) > 0 && len(b) > 0 && sameRule(a[0], b[0]) {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && sameRule(a[len(a)-1], b[len(b)-1]) {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	var affected []string
	for _, msg := range newDoc.Messages {
		other := func(r Rule) bool { return r.Message != msg }
		if !slices.EqualFunc(slices.DeleteFunc(slices.Clone(a), other), slices.DeleteFunc(slices.Clone(b), other), sameRule) {
			affected = append(affected, msg)
		}
	}
	return core.ModelDelta{Messages: affected}
}

// sameRule compares as canonical JSON would: an empty list is an absent one.
func sameRule(a, b Rule) bool {
	return a.Message == b.Message && a.Finish == b.Finish && slices.Equal(a.When, b.When) &&
		slices.Equal(a.Actions, b.Actions) && slices.Equal(a.Annotations, b.Annotations) &&
		slices.EqualFunc(a.Set, b.Set, func(a, b Assign) bool {
			return a.Component == b.Component && a.Add == b.Add &&
				(a.Set == nil) == (b.Set == nil) && (a.Set == nil || *a.Set == *b.Set)
		})
}
