package core

import "context"

// RefinementsAgree explores m as Generate does, or as GenerateEnumerated
// does when enumerated is set, and reports whether step 4's worklist
// refinement and Moore's place the explored states in the same classes.
func RefinementsAgree(m Model, enumerated bool) error {
	if enumerated {
		ex, _, err := enumerate(context.Background(), m)
		if err != nil {
			return err
		}
		return refinementsAgree(ex, nil, ex.hasFinish)
	}
	ex, err := explore(context.Background(), m, 0)
	if err != nil {
		return err
	}
	return refinementsAgree(ex, nil, ex.hasFinish)
}

// RefineSignatures explores m as Generate does and returns how many
// signatures step 4's refinement computes over all its rounds, with the
// number of states it refines.
func RefineSignatures(m Model) (signed, states int, err error) {
	ex, err := explore(context.Background(), m, 0)
	if err != nil {
		return 0, 0, err
	}
	f, _ := flatten(ex, nil, ex.hasFinish, true)
	r := newRefinement(f)
	if err := r.run(context.Background()); err != nil {
		return 0, 0, err
	}
	return r.signed, f.n, nil
}

// TwinModels are the models of the merge twin tests.
var TwinModels = []Model{twinModel{}, trueTwinModel{}}
