package ivm

import (
	"slices"
	"sync"

	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

// viewTree is the generic F-IVM view hierarchy: one payload of type E
// per join key per node, plus the root result. It is parameterized by
// the ring the payloads live in (ring.Algebra), which is what lets the
// SAME single-pass delta propagation maintain covariance triples
// (ring.CovarRing) or lifted degree-2 moment vectors (ring.Poly2Ring) —
// the paper's claim that the factorized computation is ring-generic,
// realized in the maintenance path.
//
// Propagation allocates nothing in steady state. Intermediate products
// and a tuple's extracted values live in per-worker scratch; the deltas
// the mutate phase still needs live in per-batch-position slots that
// are reused from batch to batch. Only a view entry seen for the first
// time is freshly allocated, because it becomes maintained state.
type viewTree[E any] struct {
	alg ring.Algebra[E]
	// lift overwrites dst with a tuple's ring element at node n, given
	// the tuple's owned continuous values fv and categorical codes cv.
	// The default lifts the continuous features through the algebra;
	// payloads with categorical slots (cofactor) or per-aggregate
	// monomials (the scalar strategies' group-keyed payloads) inject
	// their own.
	lift   func(dst E, n *node, fv []float64, cv []int32)
	views  map[*node]map[uint64]E
	result E

	// free holds the scratch no worker is using, guarded by mu.
	mu   sync.Mutex
	free []*scratch[E]
	// slots is ApplyBatch's per-batch-position storage, serial the
	// single-tuple path's.
	slots  []deltaSlot[E]
	serial deltaSlot[E]
}

func newViewTree[E any](alg ring.Algebra[E], root *node) *viewTree[E] {
	return newViewTreeLift(alg, root, func(dst E, n *node, fv []float64, _ []int32) {
		alg.LiftInto(dst, n.featIdx, fv)
	})
}

// newViewTreeLift is newViewTree with a custom tuple lift.
func newViewTreeLift[E any](alg ring.Algebra[E], root *node, lift func(dst E, n *node, fv []float64, cv []int32)) *viewTree[E] {
	vt := &viewTree[E]{alg: alg, lift: lift,
		views: make(map[*node]map[uint64]E), result: alg.Zero()}
	var init func(n *node)
	init = func(n *node) {
		vt.views[n] = make(map[uint64]E)
		for _, c := range n.children {
			init(c)
		}
	}
	init(root)
	return vt
}

// scratch is one worker's reusable working set: the temporaries
// products are built in, the factor list of the product in progress,
// one tuple's extracted values, and the fanout grouping of every tree
// level a climb passes.
type scratch[E any] struct {
	tmp     [3]E
	factors []E
	fv      []float64
	cv      []int32
	fan     []*fanout[E]
}

// fanout groups one climb step's per-row contributions by the parent's
// own upward key.
type fanout[E any] struct {
	acc  map[uint64]E
	keys []uint64
}

// deltaSlot is one batch position's reusable storage: the effects
// recorded for its op's two halves, and the ring elements those effects
// carry — the op's deltas and any fanout sums of their climbs. Between
// ops it keeps at most two elements, one per half of an update.
type deltaSlot[E any] struct {
	opEffects[[]viewEffect[E]]
	elems []E
	used  int
}

// reset readies the slot for its next op. After a fanout it drops the
// elements taken beyond one per op half, with the effect lists that
// still point at them.
func (sl *deltaSlot[E]) reset() {
	if len(sl.elems) > 2 {
		clear(sl.elems[2:])
		sl.elems = sl.elems[:2]
		sl.del, sl.ins = nil, nil
	}
	sl.used = 0
}

// take hands out the slot's next element for overwriting.
func (sl *deltaSlot[E]) take(alg ring.Algebra[E]) E {
	if sl.used == len(sl.elems) {
		sl.elems = append(sl.elems, alg.Zero())
	}
	e := sl.elems[sl.used]
	sl.used++
	return e
}

// getScratch hands the calling worker a scratch no other worker holds.
func (vt *viewTree[E]) getScratch() *scratch[E] {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	if k := len(vt.free); k > 0 {
		s := vt.free[k-1]
		vt.free = vt.free[:k-1]
		return s
	}
	return &scratch[E]{tmp: [3]E{vt.alg.Zero(), vt.alg.Zero(), vt.alg.Zero()}}
}

// putScratch returns a scratch taken with getScratch.
func (vt *viewTree[E]) putScratch(s *scratch[E]) {
	vt.mu.Lock()
	vt.free = append(vt.free, s)
	vt.mu.Unlock()
}

// rowValues extracts the values node n owns from stored row `row`.
func (s *scratch[E]) rowValues(n *node, row int) ([]float64, []int32) {
	s.fv, s.cv = s.fv[:0], s.cv[:0]
	for _, c := range n.featCols {
		s.fv = append(s.fv, n.rel.Float(c, row))
	}
	for _, c := range n.catCols {
		s.cv = append(s.cv, n.rel.Cat(c, row))
	}
	return s.fv, s.cv
}

// tupleValues extracts the values node n owns from a value tuple, for
// rows that are not (yet) stored.
func (s *scratch[E]) tupleValues(n *node, vals []relation.Value) ([]float64, []int32) {
	s.fv, s.cv = s.fv[:0], s.cv[:0]
	for _, c := range n.featCols {
		s.fv = append(s.fv, vals[c].F)
	}
	for _, c := range n.catCols {
		s.cv = append(s.cv, vals[c].C)
	}
	return s.fv, s.cv
}

// fanoutAt returns the emptied fanout grouping of tree level depth.
func (s *scratch[E]) fanoutAt(depth int) *fanout[E] {
	for len(s.fan) <= depth {
		s.fan = append(s.fan, &fanout[E]{acc: make(map[uint64]E)})
	}
	f := s.fan[depth]
	clear(f.acc)
	f.keys = f.keys[:0]
	return f
}

// liftProduct overwrites dst with lift(fv, cv) ⨂ s.factors[0] ⨂ … ⨂
// s.factors[k-1], multiplied left to right. dst must be none of the
// first two temporaries, which hold the intermediate products.
func (vt *viewTree[E]) liftProduct(dst E, s *scratch[E], n *node, fv []float64, cv []int32) {
	if len(s.factors) == 0 {
		vt.lift(dst, n, fv, cv)
		return
	}
	cur, next := s.tmp[0], s.tmp[1]
	vt.lift(cur, n, fv, cv)
	last := len(s.factors) - 1
	for _, f := range s.factors[:last] {
		vt.alg.MulInto(next, cur, f)
		cur, next = next, cur
	}
	vt.alg.MulInto(dst, cur, s.factors[last])
}

// tupleDelta overwrites dst with row's current contribution at node n:
// lift(t) ⨂ the child views. It reports false when a join partner is
// missing — the tuple contributes nothing (yet); it will contribute
// when the partner's own delta climbs past this node.
func (vt *viewTree[E]) tupleDelta(dst E, s *scratch[E], n *node, row int) bool {
	s.factors = s.factors[:0]
	for ci, c := range n.children {
		cv, present := vt.views[c][n.childKey(ci, row)]
		if !present {
			return false
		}
		s.factors = append(s.factors, cv)
	}
	fv, cv := s.rowValues(n, row)
	vt.liftProduct(dst, s, n, fv, cv)
	return true
}

// tupleDeltaVals is tupleDelta against a value tuple instead of a
// stored row — the batch path computes deltas before (inserts) or
// independently of (deletes) the physical row mutation.
func (vt *viewTree[E]) tupleDeltaVals(dst E, s *scratch[E], n *node, vals []relation.Value) bool {
	s.factors = s.factors[:0]
	for ci, c := range n.children {
		cv, present := vt.views[c][keyOfVals(n.rel, n.childKeyCols[ci], vals)]
		if !present {
			return false
		}
		s.factors = append(s.factors, cv)
	}
	fv, cv := s.tupleValues(n, vals)
	vt.liftProduct(dst, s, n, fv, cv)
	return true
}

// viewEffect is one pending write of a propagation pass: merge delta
// into n's view at key, or — with n nil — into the root result.
type viewEffect[E any] struct {
	n     *node
	key   uint64
	delta E
}

// computeEffects is the read-only half of delta propagation: it walks
// the leaf-to-root path exactly as propagate does, but records the
// writes it would perform instead of performing them. Everything it
// reads — the parent's child-edge index and rows, sibling views — lies
// OUTSIDE the write set of the effects it emits (n's own relation and
// the views on the n→root path), which is what lets the batch path run
// it concurrently for many tuples of one relation. Fanout deltas are
// expanded in ascending key order, a fixed reduction order that makes
// the effect list — and with it every maintained float — deterministic
// instead of following Go's randomized map iteration. The fanout sums
// are taken from sl, which must outlive the returned effects; depth is
// n's distance from the climb's start.
func (vt *viewTree[E]) computeEffects(s *scratch[E], sl *deltaSlot[E], depth int, n *node, key uint64, delta E, out []viewEffect[E]) []viewEffect[E] {
	out = append(out, viewEffect[E]{n: n, key: key, delta: delta})
	p := n.parent
	if p == nil {
		return append(out, viewEffect[E]{delta: delta})
	}
	// δ_p(k') = Σ_{t ∈ R_p matching} lift(t) ⨂ δ ⨂ Π_{c≠n} V_c, summed
	// per parent key k' in posting-list order.
	f := s.fanoutAt(depth)
	for _, r32 := range p.childIndexes[n.childPos].Rows(key) {
		r := int(r32)
		s.factors = append(s.factors[:0], delta)
		joined := true
		for ci, c := range p.children {
			if c == n {
				continue
			}
			cv, present := vt.views[c][p.childKey(ci, r)]
			if !present {
				joined = false
				break
			}
			s.factors = append(s.factors, cv)
		}
		if !joined {
			continue
		}
		k := p.parentKey(r)
		fv, cv := s.rowValues(p, r)
		if sum, seen := f.acc[k]; seen {
			vt.liftProduct(s.tmp[2], s, p, fv, cv)
			vt.alg.AddInPlace(sum, s.tmp[2])
		} else {
			sum = sl.take(vt.alg)
			vt.liftProduct(sum, s, p, fv, cv)
			f.acc[k] = sum
			f.keys = append(f.keys, k)
		}
	}
	slices.Sort(f.keys)
	for _, k := range f.keys {
		out = vt.computeEffects(s, sl, depth+1, p, k, f.acc[k], out)
	}
	return out
}

// applyEffects replays a recorded propagation: the write half.
func (vt *viewTree[E]) applyEffects(effs []viewEffect[E]) {
	for _, e := range effs {
		if e.n == nil {
			vt.alg.AddInPlace(vt.result, e.delta)
			continue
		}
		v := vt.views[e.n]
		if cur, present := v[e.key]; present {
			vt.alg.AddInPlace(cur, e.delta)
			// A retraction that drains a key's support leaves the exact
			// additive identity (integer-exact data cancels bitwise);
			// prune it so view memory tracks the live database, not the
			// churn history. Missing and present-zero entries are
			// interchangeable to every reader: both multiply a delta to
			// nothing.
			if vt.alg.IsZero(cur) {
				delete(v, e.key)
			}
		} else if !vt.alg.IsZero(e.delta) {
			v[e.key] = vt.alg.Clone(e.delta)
		}
	}
}

// propagateRow applies stored row `row` of node n's current
// contribution, negated when neg, to every view on its path to the
// root — the single-tuple Insert/Delete path. The row's own relation is
// never read past its delta, so a delete may remove the row after this
// returns.
func (vt *viewTree[E]) propagateRow(n *node, row int, neg bool) {
	s, sl := vt.getScratch(), &vt.serial
	sl.reset()
	delta := sl.take(vt.alg)
	if vt.tupleDelta(delta, s, n, row) {
		if neg {
			vt.alg.NegInPlace(delta)
		}
		sl.ins = vt.computeEffects(s, sl, 0, n, n.parentKey(row), delta, sl.ins[:0])
		vt.applyEffects(sl.ins)
	}
	vt.putScratch(s)
}

// tupleEffects records, into out, the propagation a tuple with these
// values triggers at node n (negated when neg), reading only
// batch-start state. Its delta and fanout sums come from sl.
func (vt *viewTree[E]) tupleEffects(s *scratch[E], sl *deltaSlot[E], n *node, vals []relation.Value, neg bool, out []viewEffect[E]) []viewEffect[E] {
	delta := sl.take(vt.alg)
	if !vt.tupleDeltaVals(delta, s, n, vals) {
		sl.used-- // hand the unused delta back
		return out
	}
	if neg {
		vt.alg.NegInPlace(delta)
	}
	return vt.computeEffects(s, sl, 0, n, keyOfVals(n.rel, n.parentKeyCols, vals), delta, out)
}

// applyBatch is ApplyBatch over this tree: per-op effects are computed
// morsel-parallel into the reused slots, then replayed serially in op
// order. m is the owning maintainer, for the serial fallback.
func (vt *viewTree[E]) applyBatch(b *base, m Maintainer, ops []Op) BatchResult {
	return applyOps(b, ops, &vt.slots,
		func(idx []int, slots []deltaSlot[E]) {
			s := vt.getScratch()
			for k, oi := range idx {
				sl := &slots[k]
				sl.reset()
				half := func(n *node, vals []relation.Value, neg bool, dst *[]viewEffect[E]) {
					*dst = vt.tupleEffects(s, sl, n, vals, neg, (*dst)[:0])
				}
				computeOpEffects(b, &ops[oi], &sl.opEffects, half)
			}
			vt.putScratch(s)
		},
		func(op *Op, sl *deltaSlot[E]) (uint64, uint64, bool, error) {
			return applyOpEffects(b, op, &sl.opEffects, vt.applyEffects)
		},
		func(op *Op) (uint64, uint64, bool, error) { return serialApply(m, op) })
}

// FIVM is the factorized incremental view maintenance strategy (Nikolic &
// Olteanu, SIGMOD'18): one view hierarchy over the join tree whose
// payloads are ring elements. A single delta propagation along the
// leaf-to-root path maintains the entire aggregate batch.
//
// By default the payloads are covariance-ring triples. With
// WithPayload(PayloadPoly2) the SAME single hierarchy instead carries
// lifted degree-2 elements (ring.Poly2), whose degree-≤2 prefix is the
// covariance triple — so the covariance statistics come for free and
// the degree-≤4 moments needed by polynomial regression are maintained
// by the identical propagation, at a constant-factor higher payload
// cost. With WithPayload(PayloadCofactor) it carries categorical
// cofactor elements (ring.Cofactor): the covariance triple per group of
// categorical values, lifted over each node's owned categorical AND
// continuous variables at once.
type FIVM struct {
	*base
	ring ring.CovarRing
	// tree is the payload-generic propagation over whichever of cv/p2/cf
	// is set; exactly one of them is non-nil, selecting the payload ring.
	tree interface {
		propagateRow(n *node, row int, neg bool)
		applyBatch(b *base, m Maintainer, ops []Op) BatchResult
	}
	cv  *viewTree[*ring.Covar]
	p2  *viewTree[*ring.Poly2]
	pr  *ring.Poly2Ring
	cf  *viewTree[*ring.Cofactor]
	cfr ring.CofactorRing
}

// NewFIVM creates an F-IVM maintainer over an initially empty copy of the
// join's relations, rooted at the named relation.
func NewFIVM(j *query.Join, root string, features []string, opts ...Option) (*FIVM, error) {
	o := buildOptions(opts)
	b, err := newBase(j, root, features, o)
	if err != nil {
		return nil, err
	}
	m := &FIVM{base: b, ring: ring.CovarRing{N: len(b.contFeats)}}
	switch o.payload {
	case PayloadPoly2:
		m.pr = ring.NewPoly2Ring(len(b.contFeats))
		m.p2 = newViewTree[*ring.Poly2](m.pr, m.root)
		m.tree = m.p2
	case PayloadCofactor:
		m.cfr = ring.CofactorRing{N: len(b.contFeats), K: len(b.catFeats)}
		m.cf = newViewTreeLift[*ring.Cofactor](m.cfr, m.root,
			func(dst *ring.Cofactor, n *node, fv []float64, cv []int32) {
				m.cfr.LiftCatInto(dst, n.featIdx, fv, n.catIdx, cv)
			})
		m.tree = m.cf
	default:
		m.cv = newViewTree[*ring.Covar](m.ring, m.root)
		m.tree = m.cv
	}
	return m, nil
}

// Name implements Maintainer.
func (m *FIVM) Name() string { return "F-IVM" }

// Insert implements Maintainer: one ring-valued delta propagation.
func (m *FIVM) Insert(t Tuple) error {
	n, row, err := m.append(t)
	if err != nil {
		return err
	}
	m.tree.propagateRow(n, row, false)
	return nil
}

// Delete implements Maintainer: one ring-valued retraction. The
// tuple's current contribution — lift(t) ⨂ the child views, exactly
// the insert delta — is propagated negated, so a single pass restores
// every view payload and the root element simultaneously. A missing
// child view means the tuple never contributed (it was waiting for a
// join partner), so only the physical removal remains.
func (m *FIVM) Delete(t Tuple) error {
	n, row, err := m.locate(t)
	if err != nil {
		return err
	}
	m.tree.propagateRow(n, row, true)
	m.removeRow(n, row)
	return nil
}

// ApplyBatch implements Maintainer: per-op ring deltas (tupleDeltaVals
// plus the recorded climb) computed morsel-parallel against batch-start
// state, then replayed serially in op order.
func (m *FIVM) ApplyBatch(ops []Op) BatchResult {
	return m.tree.applyBatch(m.base, m, ops)
}

// Count implements Maintainer.
func (m *FIVM) Count() float64 {
	if m.p2 != nil {
		return m.p2.result.Count()
	}
	if m.cf != nil {
		// Fold groups in sorted-key order (Each) so the float sum is
		// bitwise-deterministic, matching Sum/Moment's Marginal() fold.
		c := 0.0
		m.cf.result.Each(func(_ []int32, g *ring.Covar) {
			c += g.Count
		})
		return c
	}
	return m.cv.result.Count
}

// Sum implements Maintainer.
func (m *FIVM) Sum(i int) float64 {
	if m.p2 != nil {
		return m.p2.result.M[m.pr.SumIndex(i)]
	}
	if m.cf != nil {
		return m.cf.result.Marginal().Sum[i]
	}
	return m.cv.result.Sum[i]
}

// Moment implements Maintainer.
func (m *FIVM) Moment(i, j int) float64 {
	if m.p2 != nil {
		return m.p2.result.M[m.pr.MomentIndex(i, j)]
	}
	if m.cf != nil {
		return m.cf.result.Marginal().Q[i*m.ring.N+j]
	}
	return m.cv.result.Q[i*m.ring.N+j]
}

// Snapshot implements Maintainer: a deep copy of the root triple (for a
// lifted maintainer the degree-≤2 extraction, for a cofactor maintainer
// the marginal over all categorical groups).
func (m *FIVM) Snapshot() *ring.Covar {
	if m.p2 != nil {
		return m.p2.result.Covar()
	}
	if m.cf != nil {
		return m.cf.result.Marginal()
	}
	return m.cv.result.Clone()
}

// SnapshotLifted implements Maintainer: a deep copy of the maintained
// lifted degree-2 element, or nil when the maintainer was built without
// WithLifted.
func (m *FIVM) SnapshotLifted() *ring.Poly2 {
	if m.p2 == nil {
		return nil
	}
	return m.p2.result.Clone()
}

// SnapshotInto implements Maintainer.
func (m *FIVM) SnapshotInto(dst *ring.Covar) {
	if m.p2 != nil {
		m.p2.result.CovarInto(dst)
		return
	}
	if m.cf != nil {
		m.cf.result.MarginalInto(dst)
		return
	}
	m.cv.result.CopyInto(dst)
}

// SnapshotLiftedInto implements Maintainer.
func (m *FIVM) SnapshotLiftedInto(dst *ring.Poly2) bool {
	if m.p2 == nil {
		return false
	}
	m.p2.result.CopyInto(dst)
	return true
}

// SnapshotCofactor implements Maintainer: a deep copy of the maintained
// categorical cofactor element, or nil for other payloads.
func (m *FIVM) SnapshotCofactor() *ring.Cofactor {
	if m.cf == nil {
		return nil
	}
	return m.cfr.Clone(m.cf.result)
}

// Result exposes the maintained covariance triple (read-only; for a
// lifted or cofactor maintainer it is extracted fresh per call).
func (m *FIVM) Result() *ring.Covar {
	if m.p2 != nil {
		return m.p2.result.Covar()
	}
	if m.cf != nil {
		return m.cf.result.Marginal()
	}
	return m.cv.result
}
