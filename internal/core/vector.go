package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrStateSpaceOverflow reports that the component cross product exceeds
// math.MaxInt, so it cannot be enumerated (or even counted) in an int.
// Generate tolerates this — it never materialises the cross product —
// while GenerateEnumerated returns it.
var ErrStateSpaceOverflow = errors.New("core: state space size overflows int")

// Vector is a concrete assignment of values to the state components of an
// abstract model: element i is the value of component i. Vectors are the
// working representation during generation; they are converted to named
// State objects in the resulting StateMachine.
type Vector []int

// Clone returns an independent copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether v and w assign identical values to every component.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// Compare orders vectors lexicographically by component value. For vectors
// over the same components this coincides with comparing row-major
// enumeration indices, but never overflows, so it is the canonical ordering
// for state spaces too large to index.
func (v Vector) Compare(w Vector) int {
	for i := range v {
		if i >= len(w) {
			return 1
		}
		switch {
		case v[i] < w[i]:
			return -1
		case v[i] > w[i]:
			return 1
		}
	}
	if len(v) < len(w) {
		return -1
	}
	return 0
}

// Name renders the vector as a state name in the paper's encoding: the
// component value names joined by "/", e.g. "T/2/F/0/F/F/F".
func (v Vector) Name(components []StateComponent) string {
	return string(v.appendName(nil, components))
}

// appendName appends the state-name rendering to buf, so bulk callers can
// reuse one buffer across states.
func (v Vector) appendName(buf []byte, components []StateComponent) []byte {
	for i, val := range v {
		if i > 0 {
			buf = append(buf, '/')
		}
		buf = append(buf, components[i].ValueName(val)...)
	}
	return buf
}

// index converts the vector to its ordinal position in the row-major
// enumeration of the component cross product. It returns
// ErrStateSpaceOverflow when the enumeration index cannot be represented in
// an int.
func (v Vector) index(components []StateComponent) (int, error) {
	idx := 0
	for i, val := range v {
		card := components[i].Cardinality()
		if idx > (math.MaxInt-val)/card {
			return 0, fmt.Errorf("core: index of %v: %w", []int(v), ErrStateSpaceOverflow)
		}
		idx = idx*card + val
	}
	return idx, nil
}

// vectorFromIndex is the inverse of Vector.index.
func vectorFromIndex(idx int, components []StateComponent) Vector {
	v := make(Vector, len(components))
	for i := len(components) - 1; i >= 0; i-- {
		card := components[i].Cardinality()
		v[i] = idx % card
		idx /= card
	}
	return v
}

// stateSpaceSize returns the product of all component cardinalities, or
// ErrStateSpaceOverflow when the product exceeds math.MaxInt.
func stateSpaceSize(components []StateComponent) (int, error) {
	size := 1
	for _, c := range components {
		card := c.Cardinality()
		if card == 0 {
			return 0, nil
		}
		if size > math.MaxInt/card {
			return 0, fmt.Errorf("core: %d-component cross product: %w", len(components), ErrStateSpaceOverflow)
		}
		size *= card
	}
	return size, nil
}

// validate checks that the vector has the right arity and every value is in
// its component's domain.
func (v Vector) validate(components []StateComponent) error {
	if len(v) != len(components) {
		return fmt.Errorf("core: vector arity %d, want %d components", len(v), len(components))
	}
	for i, val := range v {
		if val < 0 || val >= components[i].Cardinality() {
			return fmt.Errorf("core: component %q value %d out of range [0,%d)",
				components[i].Name(), val, components[i].Cardinality())
		}
	}
	return nil
}
