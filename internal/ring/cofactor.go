package ring

import (
	"encoding/binary"
	"slices"
)

// Cofactor is the categorical relational ring element of Section 4 of
// the paper (and F-IVM's general cofactor construction): the covariance
// statistics COUNT / SUM(x_i) / SUM(x_i*x_j) computed *per group* of
// categorical values. The element is a sparse map from a packed
// categorical key (one slot per categorical feature; a slot may be
// unbound in partial products) to the covariance triple of the
// continuous features restricted to that group.
//
// One-hot encodings fall out for free: the indicator column of category
// value c has SUM = the COUNT of the groups where slot=c, pairwise
// indicator products come from joint group keys, and interaction
// moments SUM(x_i * 1[g=c]) are the group-restricted sums. The trainers
// in internal/ml consume exactly those projections.
type Cofactor struct {
	// N is the number of continuous features of each group's Covar.
	N int
	// K is the number of categorical slots of each group key.
	K int
	// Groups maps packed categorical keys (see packCatKey) to the
	// group-restricted continuous statistics.
	Groups map[string]*Covar

	// spare holds group statistics an in-place overwrite of this element
	// released, for the next overwrite to reuse; keys is scratch for the
	// sorted operand keys of MulInto. Neither is part of the value.
	spare []*Covar
	keys  []string
}

// unboundSlot marks a categorical slot not yet bound by any Lift on
// this partial product. Fully aggregated results at the join root bind
// every slot, because every categorical feature is owned by exactly one
// relation of the tree.
const unboundSlot = 0xFFFFFFFF

// packCatKey packs the K-slot key where slots idx[t] carry codes[t] and
// every other slot is unbound. Codes are relation dictionary codes
// (never negative), so uint32 round-trips them exactly.
func packCatKey(k int, idx []int, codes []int32) string {
	var buf [64]byte
	b := buf[:0]
	if 4*k <= len(buf) {
		b = buf[:4*k]
	} else {
		b = make([]byte, 4*k)
	}
	for i := range b {
		b[i] = 0xFF
	}
	for t, i := range idx {
		binary.BigEndian.PutUint32(b[4*i:], uint32(codes[t]))
	}
	return string(b)
}

// mergeCatKeys combines two packed keys slot-wise: an unbound slot
// adopts the other side's binding, equal bindings agree, and differing
// bindings mean the two partial tuples disagree on a categorical value
// — their product is zero (ok=false).
func mergeCatKeys(a, b string) (key string, ok bool) {
	if a == b {
		return a, true
	}
	var buf [64]byte
	out := buf[:0]
	if len(a) <= len(buf) {
		out = buf[:len(a)]
	} else {
		out = make([]byte, len(a))
	}
	for i := 0; i < len(a); i += 4 {
		av := binary.BigEndian.Uint32([]byte(a[i : i+4]))
		bv := binary.BigEndian.Uint32([]byte(b[i : i+4]))
		switch {
		case av == unboundSlot:
			binary.BigEndian.PutUint32(out[i:], bv)
		case bv == unboundSlot || av == bv:
			binary.BigEndian.PutUint32(out[i:], av)
		default:
			return "", false
		}
	}
	return string(out), true
}

// unpackCatKey decodes a packed key into per-slot codes, -1 for unbound.
func unpackCatKey(key string) []int32 {
	out := make([]int32, len(key)/4)
	for i := range out {
		v := binary.BigEndian.Uint32([]byte(key[4*i : 4*i+4]))
		if v == unboundSlot {
			out[i] = -1
		} else {
			out[i] = int32(v)
		}
	}
	return out
}

// NumGroups reports the number of live categorical groups.
func (e *Cofactor) NumGroups() int { return len(e.Groups) }

// Group returns the statistics of the fully bound group with the given
// per-slot codes, or nil when that combination has no live tuples.
func (e *Cofactor) Group(codes []int32) *Covar {
	idx := make([]int, len(codes))
	for i := range idx {
		idx[i] = i
	}
	return e.Groups[packCatKey(e.K, idx, codes)]
}

// Each visits every group in deterministic (sorted-key) order with its
// decoded per-slot codes (-1 = unbound, which only occurs in partial
// products, never in root results). The codes slice is reused across
// calls; copy it to retain.
func (e *Cofactor) Each(fn func(codes []int32, g *Covar)) {
	for _, k := range appendSortedKeys(make([]string, 0, len(e.Groups)), e.Groups) {
		fn(unpackCatKey(k), e.Groups[k])
	}
}

// Marginal sums every group into one global covariance triple — the
// continuous statistics ignoring the categorical grouping. It is the
// bridge that keeps Count/Sum/Moment/Snapshot exact on cofactor
// maintainers. Groups fold in sorted-key order so the floats are
// deterministic across runs.
func (e *Cofactor) Marginal() *Covar {
	m := CovarRing{N: e.N}.Zero()
	e.Each(func(_ []int32, g *Covar) { m.AddInPlace(g) })
	return m
}

// MarginalInto computes the marginal into dst, reusing dst's backing
// when pre-sized — the SnapshotInto reuse contract.
func (e *Cofactor) MarginalInto(dst *Covar) {
	dst.N = e.N
	dst.Count = 0
	if cap(dst.Sum) < e.N {
		dst.Sum = make([]float64, e.N)
	} else {
		dst.Sum = dst.Sum[:e.N]
		clear(dst.Sum)
	}
	nn := e.N * e.N
	if cap(dst.Q) < nn {
		dst.Q = make([]float64, nn)
	} else {
		dst.Q = dst.Q[:nn]
		clear(dst.Q)
	}
	e.Each(func(_ []int32, g *Covar) { dst.AddInPlace(g) })
}

// ApproxEqual reports whether the two elements have the same group keys
// and componentwise equal statistics within tol.
func (e *Cofactor) ApproxEqual(o *Cofactor, tol float64) bool {
	if e.N != o.N || e.K != o.K || len(e.Groups) != len(o.Groups) {
		return false
	}
	//borg:nondeterministic-ok — conjunction over independent per-key checks; order-insensitive
	for k, g := range e.Groups {
		og, ok := o.Groups[k]
		if !ok || !g.ApproxEqual(og, tol) {
			return false
		}
	}
	return true
}

// CofactorRing instantiates ring.Algebra over *Cofactor: componentwise
// addition and negation, group-wise multiplication (keys of the two
// sides merge when their bound slots agree; the group values multiply
// under the covariance ring), and lifting over a relation's owned
// categorical AND continuous variables at once.
type CofactorRing struct {
	// N is the number of continuous features, K the number of
	// categorical slots.
	N, K int
}

func (r CofactorRing) covar() CovarRing { return CovarRing{N: r.N} }

// Zero returns the additive identity: no live groups.
func (r CofactorRing) Zero() *Cofactor {
	return &Cofactor{N: r.N, K: r.K, Groups: make(map[string]*Covar)}
}

// One returns the multiplicative identity: a single all-unbound group
// whose value is the covariance-ring one.
func (r CofactorRing) One() *Cofactor {
	e := r.Zero()
	e.Groups[packCatKey(r.K, nil, nil)] = r.covar().One()
	return e
}

// Lift implements Algebra without categorical bindings; maintenance
// uses LiftCat.
func (r CofactorRing) Lift(idx []int, vals []float64) *Cofactor {
	return r.LiftCat(idx, vals, nil, nil)
}

// LiftCat maps one tuple to its ring element: a single group binding
// the owned categorical slots catIdx to the tuple's codes, whose value
// is the covariance-ring lift of the owned continuous features.
func (r CofactorRing) LiftCat(idx []int, vals []float64, catIdx []int, cats []int32) *Cofactor {
	e := r.Zero()
	r.LiftCatInto(e, idx, vals, catIdx, cats)
	return e
}

// LiftInto implements Algebra: LiftCatInto without categorical
// bindings.
func (r CofactorRing) LiftInto(dst *Cofactor, idx []int, vals []float64) {
	r.LiftCatInto(dst, idx, vals, nil, nil)
}

// LiftCatInto is LiftCat overwriting dst, reusing its group statistics.
func (r CofactorRing) LiftCatInto(dst *Cofactor, idx []int, vals []float64, catIdx []int, cats []int32) {
	dst.release()
	g := dst.take(r.N)
	r.covar().LiftInto(g, idx, vals)
	dst.Groups[packCatKey(r.K, catIdx, cats)] = g
}

// maxSpareGroups bounds the group statistics an element keeps for
// reuse: enough for the few groups of a tuple's lift and its products,
// few enough that an element which once held a wide fanout sum does
// not pin it.
const maxSpareGroups = 4

// release empties e ahead of an in-place overwrite, keeping up to
// maxSpareGroups of its group statistics for take to hand out again.
// A map that grew past that many groups is replaced, not cleared, so
// its buckets are not kept either.
func (e *Cofactor) release() {
	//borg:nondeterministic-ok — collects groups for reuse; each is overwritten before use, so which ones are kept is irrelevant
	for _, g := range e.Groups {
		e.recycle(g)
	}
	if len(e.Groups) > maxSpareGroups {
		e.Groups = make(map[string]*Covar)
	} else {
		clear(e.Groups)
	}
}

// recycle keeps g for reuse by take, up to maxSpareGroups.
func (e *Cofactor) recycle(g *Covar) {
	if len(e.spare) < maxSpareGroups {
		e.spare = append(e.spare, g)
	}
}

// take returns group statistics over n features for e to overwrite: a
// released one when available, a fresh one otherwise.
func (e *Cofactor) take(n int) *Covar {
	if k := len(e.spare); k > 0 {
		g := e.spare[k-1]
		e.spare = e.spare[:k-1]
		return g
	}
	return CovarRing{N: n}.Zero()
}

// Add returns a+b componentwise (group union, covariance addition).
func (r CofactorRing) Add(a, b *Cofactor) *Cofactor {
	out := r.Clone(a)
	r.AddInPlace(out, b)
	return out
}

// AddInPlace folds src into dst, pruning groups whose statistics cancel
// to exact zero so retraction shrinks the map for real.
func (r CofactorRing) AddInPlace(dst, src *Cofactor) {
	cr := r.covar()
	//borg:nondeterministic-ok — each src key folds into its own dst slot exactly once; order-insensitive
	for k, g := range src.Groups {
		if d, ok := dst.Groups[k]; ok {
			d.AddInPlace(g)
			if cr.IsZero(d) {
				delete(dst.Groups, k)
			}
		} else {
			dst.Groups[k] = cr.Clone(g)
		}
	}
}

// Mul returns the group-wise product as a fresh element; see MulInto.
func (r CofactorRing) Mul(a, b *Cofactor) *Cofactor {
	out := r.Zero()
	r.MulInto(out, a, b)
	return out
}

// MulInto overwrites dst with the group-wise product: every pair of
// groups whose bound slots agree contributes the covariance-ring
// product under the merged key; disagreeing pairs contribute zero.
// Distinct pairs can merge onto ONE output key, so the pair order
// decides a float-addition order: both operands iterate in sorted-key
// order to keep products bitwise-deterministic across runs and worker
// counts. dst's group statistics are reused.
func (r CofactorRing) MulInto(dst, a, b *Cofactor) {
	dst.release()
	cr := r.covar()
	keys := appendSortedKeys(dst.keys[:0], a.Groups)
	na := len(keys)
	keys = appendSortedKeys(keys, b.Groups)
	dst.keys = keys
	aKeys, bKeys := keys[:na], keys[na:]
	for _, ka := range aKeys {
		ga := a.Groups[ka]
		for _, kb := range bKeys {
			k, ok := mergeCatKeys(ka, kb)
			if !ok {
				continue
			}
			p := dst.take(r.N)
			cr.MulInto(p, ga, b.Groups[kb])
			if d, okd := dst.Groups[k]; okd {
				d.AddInPlace(p)
				dst.recycle(p)
				if cr.IsZero(d) {
					delete(dst.Groups, k)
					dst.recycle(d)
				}
			} else if cr.IsZero(p) {
				dst.recycle(p)
			} else {
				dst.Groups[k] = p
			}
		}
	}
	clear(keys) // drop the operands' key strings
}

// appendSortedKeys appends m's keys to dst and sorts the appended run —
// the fixed iteration order that keeps ring folds bitwise-deterministic
// whenever group contributions can collide on one key.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	n := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// Neg returns the additive inverse: every group negated.
func (r CofactorRing) Neg(a *Cofactor) *Cofactor {
	out := r.Clone(a)
	r.NegInPlace(out)
	return out
}

// NegInPlace negates every group of e.
func (r CofactorRing) NegInPlace(e *Cofactor) {
	cr := r.covar()
	//borg:nondeterministic-ok — per-group negation, no accumulation; order-insensitive
	for _, g := range e.Groups {
		cr.NegInPlace(g)
	}
}

// IsZero reports whether the element is the additive identity. Groups
// are pruned eagerly on cancellation, so an empty map is the canonical
// zero; any surviving group with nonzero statistics makes the element
// nonzero.
func (r CofactorRing) IsZero(e *Cofactor) bool {
	cr := r.covar()
	//borg:nondeterministic-ok — existence check over independent groups; order-insensitive
	for _, g := range e.Groups {
		if !cr.IsZero(g) {
			return false
		}
	}
	return true
}

// Clone deep-copies the element.
func (r CofactorRing) Clone(e *Cofactor) *Cofactor {
	out := &Cofactor{N: e.N, K: e.K, Groups: make(map[string]*Covar, len(e.Groups))}
	cr := r.covar()
	//borg:nondeterministic-ok — per-key deep copy, no accumulation; order-insensitive
	for k, g := range e.Groups {
		out.Groups[k] = cr.Clone(g)
	}
	return out
}

// CatScalar is one group-keyed scalar aggregate — the payload the
// classical strategies (higher-order, first-order) maintain per
// covariance aggregate when the cofactor statistics are requested: each
// SUM(Πx^p) split by categorical group, exactly LMFAO's group-by
// aggregate batch with one scalar per group.
type CatScalar struct {
	K int
	G map[string]float64

	// keys is scratch for the sorted operand keys of MulInto; not part
	// of the value.
	keys []string
}

// Total sums every group scalar in sorted-key order — the marginal of
// this aggregate over the categorical grouping, deterministic across
// runs.
func (e *CatScalar) Total() float64 {
	t := 0.0
	for _, k := range appendSortedKeys(make([]string, 0, len(e.G)), e.G) {
		t += e.G[k]
	}
	return t
}

// CatScalarRing instantiates ring.Algebra over *CatScalar for one
// aggregate. Lifting needs the aggregate's local monomial value, which
// the strategies supply through per-aggregate lift closures; the
// interface Lift binds no slots and uses the product of vals.
type CatScalarRing struct{ K int }

// LiftVal maps a tuple's local monomial value to a single-group scalar.
func (r CatScalarRing) LiftVal(catIdx []int, cats []int32, v float64) *CatScalar {
	e := r.Zero()
	r.LiftValInto(e, catIdx, cats, v)
	return e
}

// LiftValInto is LiftVal overwriting dst.
func (r CatScalarRing) LiftValInto(dst *CatScalar, catIdx []int, cats []int32, v float64) {
	clear(dst.G)
	dst.G[packCatKey(r.K, catIdx, cats)] = v
}

// Zero returns the additive identity: no live groups.
func (r CatScalarRing) Zero() *CatScalar {
	return &CatScalar{K: r.K, G: make(map[string]float64)}
}

// LiftInto implements Algebra; maintenance lifts through LiftValInto
// instead. It binds no slots and uses the product of vals.
func (r CatScalarRing) LiftInto(dst *CatScalar, idx []int, vals []float64) {
	v := 1.0
	for _, x := range vals {
		v *= x
	}
	r.LiftValInto(dst, nil, nil, v)
}

// Mul returns the group-wise product as a fresh element; see MulInto.
func (r CatScalarRing) Mul(a, b *CatScalar) *CatScalar {
	out := r.Zero()
	r.MulInto(out, a, b)
	return out
}

// MulInto overwrites dst with the group-wise product under merged keys.
// As with CofactorRing.MulInto, colliding pairs accumulate in
// sorted-key order so the sums are bitwise-deterministic.
func (r CatScalarRing) MulInto(dst, a, b *CatScalar) {
	clear(dst.G)
	keys := appendSortedKeys(dst.keys[:0], a.G)
	na := len(keys)
	keys = appendSortedKeys(keys, b.G)
	dst.keys = keys
	for _, ka := range keys[:na] {
		va := a.G[ka]
		for _, kb := range keys[na:] {
			if k, ok := mergeCatKeys(ka, kb); ok {
				dst.G[k] += va * b.G[kb]
			}
		}
	}
	clear(keys)
}

// Neg returns the additive inverse.
func (r CatScalarRing) Neg(a *CatScalar) *CatScalar {
	out := r.Clone(a)
	r.NegInPlace(out)
	return out
}

// NegInPlace negates every group scalar of e.
func (r CatScalarRing) NegInPlace(e *CatScalar) {
	//borg:nondeterministic-ok — per-key negation, no accumulation; order-insensitive
	for k, v := range e.G {
		e.G[k] = -v
	}
}

// AddInPlace folds src into dst, pruning exact-zero groups.
func (r CatScalarRing) AddInPlace(dst, src *CatScalar) {
	//borg:nondeterministic-ok — each src key folds into its own dst slot exactly once; order-insensitive
	for k, v := range src.G {
		s := dst.G[k] + v
		if s == 0 {
			delete(dst.G, k)
		} else {
			dst.G[k] = s
		}
	}
}

// IsZero reports whether every group scalar is zero.
func (r CatScalarRing) IsZero(e *CatScalar) bool {
	//borg:nondeterministic-ok — existence check over independent groups; order-insensitive
	for _, v := range e.G {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone deep-copies the element.
func (r CatScalarRing) Clone(e *CatScalar) *CatScalar {
	out := &CatScalar{K: e.K, G: make(map[string]float64, len(e.G))}
	//borg:nondeterministic-ok — per-key copy, no accumulation; order-insensitive
	for k, v := range e.G {
		out.G[k] = v
	}
	return out
}
