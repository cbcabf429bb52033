// Package ring implements the (semi)ring abstraction of Section 3.1 of the
// paper and the concrete rings used throughout the system: the counting
// and summation semirings, and the covariance ring of Section 5.2 whose
// elements are (count, sum-vector, second-moment-matrix) triples.
//
// The point of the abstraction is the sum-product form of relational
// computation: a join result is a big sum (union) of products (tuple
// concatenations), and evaluating a query under a different ring
// re-purposes the *same* factorized computation for counting, aggregation,
// covariance-matrix construction, or incremental maintenance. Packages
// internal/factor and internal/ivm are generic over Ring.
//
// Two interfaces split the rings by element weight. Ring takes and
// returns values, which suits scalars and one-off evaluation. Algebra is
// the maintenance-facing view over heavy, pointer-backed elements (Covar,
// Poly2, Cofactor, CatScalar): every operation writes into an element
// the caller owns, so incremental maintenance can keep its intermediate
// products in reused scratch instead of allocating per tuple. The
// value-returning Lift/Mul/Neg/Add on the concrete rings are thin
// wrappers that allocate a fresh result and run the in-place form.
package ring

// Ring is a commutative ring over T. Implementations must satisfy, for
// all a, b, c: commutativity and associativity of Add and Mul,
// distributivity of Mul over Add, Zero as additive identity, One as
// multiplicative identity, and Zero as multiplicative annihilator.
// These axioms are property-tested in ring_test.go.
type Ring[T any] interface {
	Zero() T
	One() T
	Add(a, b T) T
	Mul(a, b T) T
}

// Inverter is implemented by rings with additive inverses, which is what
// turns insert-only maintenance into full insert/delete maintenance
// (Section 3.1, "additive inverse").
type Inverter[T any] interface {
	Neg(a T) T
}

// Algebra is the maintenance-facing view of a ring over heavy elements:
// what a view hierarchy needs to lift tuples, combine subtree payloads,
// retract contributions, and prune drained entries. CovarRing (over
// *Covar), Poly2Ring (over *Poly2), CofactorRing (over *Cofactor) and
// CatScalarRing (over *CatScalar) implement it, which is what lets one
// generic F-IVM propagation maintain any of these payloads.
//
// Every operation except Zero and Clone writes into an element the
// caller passes in, and none of them retains its arguments. That is
// the contract the propagation path relies on to run allocation-free:
// it lifts and multiplies into per-worker scratch and keeps only the
// deltas it must hand to the mutate phase.
type Algebra[E any] interface {
	// Zero returns a fresh additive identity, the way callers
	// allocate elements to write into.
	Zero() E
	// LiftInto overwrites dst with one tuple's lift: its owned feature
	// values (global indexes idx in ascending order, parallel values
	// vals) mapped into the ring.
	LiftInto(dst E, idx []int, vals []float64)
	// MulInto overwrites dst with a * b. dst must alias neither operand.
	MulInto(dst, a, b E)
	// NegInPlace replaces e by its additive inverse.
	NegInPlace(e E)
	// AddInPlace accumulates src into dst.
	AddInPlace(dst, src E)
	// IsZero reports whether e is exactly the additive identity.
	IsZero(e E) bool
	// Clone returns a deep copy sharing no state with e.
	Clone(e E) E
}

// Float is the ring of float64 under + and *. It is a ring up to floating
// point rounding; the property tests use exact small integers.
type Float struct{}

// Zero returns 0.
func (Float) Zero() float64 { return 0 }

// One returns 1.
func (Float) One() float64 { return 1 }

// Add returns a + b.
func (Float) Add(a, b float64) float64 { return a + b }

// Mul returns a * b.
func (Float) Mul(a, b float64) float64 { return a * b }

// Neg returns -a.
func (Float) Neg(a float64) float64 { return -a }

// Int is the ring of int64 under + and *. With tuple multiplicities as
// int64, inserts are +1 and deletes are -1 (Section 3.1).
type Int struct{}

// Zero returns 0.
func (Int) Zero() int64 { return 0 }

// One returns 1.
func (Int) One() int64 { return 1 }

// Add returns a + b.
func (Int) Add(a, b int64) int64 { return a + b }

// Mul returns a * b.
func (Int) Mul(a, b int64) int64 { return a * b }

// Neg returns -a.
func (Int) Neg(a int64) int64 { return -a }
