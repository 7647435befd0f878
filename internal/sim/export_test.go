package sim

// RefSystem exposes the rebuild reference engine (reference_test.go) to the
// external test package, where the goldens and the engine equivalence
// suite diff System against it.
type RefSystem = refSystem

// NewRefSystem returns an empty reference system with k servers over the
// given job classes, governed by policy's dense Allocate.
func NewRefSystem(k int, classes []ClassSpec, policy Policy) *RefSystem {
	return newRefSystem(k, classes, policy)
}
