package ring

import (
	"testing"

	"borg/internal/xrand"
)

// randCofactor builds a random cofactor element as a signed sum of
// tuple lifts with random partial slot bindings. Integer values keep
// every statistic exactly representable, so the axiom checks compare
// with (near-)exact equality; eager zero-pruning in AddInPlace/Mul
// keeps the sparse maps canonical, which ApproxEqual relies on.
func randCofactor(r CofactorRing, src *xrand.Source) *Cofactor {
	e := r.Zero()
	terms := 1 + src.Intn(4)
	for t := 0; t < terms; t++ {
		vals := make([]float64, r.N)
		idx := make([]int, r.N)
		for i := range vals {
			idx[i] = i
			vals[i] = float64(src.Intn(7) - 3)
		}
		var catIdx []int
		var cats []int32
		for s := 0; s < r.K; s++ {
			if src.Intn(3) > 0 { // bind each slot with probability 2/3
				catIdx = append(catIdx, s)
				cats = append(cats, int32(src.Intn(3)))
			}
		}
		term := r.LiftCat(idx, vals, catIdx, cats)
		if src.Intn(2) == 0 {
			term = r.Neg(term)
		}
		r.AddInPlace(e, term)
	}
	return e
}

func TestCofactorRingAxioms(t *testing.T) {
	r := CofactorRing{N: 2, K: 2}
	src := xrand.New(11)
	checkRingAxioms[*Cofactor](t, r, func() *Cofactor { return randCofactor(r, src) },
		func(a, b *Cofactor) bool { return a.ApproxEqual(b, 1e-9) })
}

func TestCofactorNegCancelsAndPrunes(t *testing.T) {
	r := CofactorRing{N: 3, K: 2}
	src := xrand.New(12)
	for i := 0; i < 100; i++ {
		a := randCofactor(r, src)
		sum := r.Clone(a)
		r.AddInPlace(sum, r.Neg(a))
		if !r.IsZero(sum) {
			t.Fatal("a + (-a) != 0")
		}
		if sum.NumGroups() != 0 {
			t.Fatalf("cancellation left %d zero groups unpruned", sum.NumGroups())
		}
	}
}

func TestCofactorMulDisagreeingSlotsIsZero(t *testing.T) {
	r := CofactorRing{N: 1, K: 1}
	a := r.LiftCat([]int{0}, []float64{2}, []int{0}, []int32{0})
	b := r.LiftCat([]int{0}, []float64{3}, []int{0}, []int32{1})
	if p := r.Mul(a, b); !r.IsZero(p) || p.NumGroups() != 0 {
		t.Fatalf("product of tuples disagreeing on a bound slot = %d groups, want zero", p.NumGroups())
	}
	// An unbound slot adopts the other side's binding.
	c := r.Lift([]int{0}, []float64{5})
	p := r.Mul(a, c)
	g := p.Group([]int32{0})
	if g == nil || g.Count != 1 {
		t.Fatal("unbound slot did not adopt the bound side's code")
	}
}

func TestCofactorCloneIsDeep(t *testing.T) {
	r := CofactorRing{N: 2, K: 1}
	a := r.LiftCat([]int{0, 1}, []float64{1, 2}, []int{0}, []int32{7})
	c := r.Clone(a)
	r.AddInPlace(a, a) // double a in place
	if g := c.Group([]int32{7}); g == nil || g.Count != 1 {
		t.Fatal("Clone shares state with its source")
	}
}

// TestCofactorLiftComputesGroupedMoments is the semantic heart of the
// categorical ring: lifting each tuple of two relations and multiplying
// across the join must produce, per categorical group, exactly the
// covariance statistics of the joined rows in that group — with the
// marginal over groups equal to the plain covariance ring's result.
func TestCofactorLiftComputesGroupedMoments(t *testing.T) {
	// Feature space: continuous x0 and categorical g0 from relation A;
	// continuous x1 and categorical g1 from relation B. Cross join.
	r := CofactorRing{N: 2, K: 2}
	src := xrand.New(13)
	type rowA struct {
		x0 float64
		g0 int32
	}
	type rowB struct {
		x1 float64
		g1 int32
	}
	as := make([]rowA, 20)
	bs := make([]rowB, 15)
	for i := range as {
		as[i] = rowA{float64(src.Intn(9) - 4), int32(src.Intn(3))}
	}
	for i := range bs {
		bs[i] = rowB{float64(src.Intn(9) - 4), int32(src.Intn(2))}
	}

	// Factorized: (Σ lift(a)) * (Σ lift(b)).
	sa, sb := r.Zero(), r.Zero()
	for _, a := range as {
		r.AddInPlace(sa, r.LiftCat([]int{0}, []float64{a.x0}, []int{0}, []int32{a.g0}))
	}
	for _, b := range bs {
		r.AddInPlace(sb, r.LiftCat([]int{1}, []float64{b.x1}, []int{1}, []int32{b.g1}))
	}
	got := r.Mul(sa, sb)

	// Brute force per group over the materialized cross join.
	cr := CovarRing{N: 2}
	want := map[[2]int32]*Covar{}
	total := cr.Zero()
	for _, a := range as {
		for _, b := range bs {
			l := cr.Lift([]int{0, 1}, []float64{a.x0, b.x1})
			key := [2]int32{a.g0, b.g1}
			if want[key] == nil {
				want[key] = cr.Zero()
			}
			want[key].AddInPlace(l)
			total.AddInPlace(l)
		}
	}
	for key, w := range want {
		g := got.Group([]int32{key[0], key[1]})
		if g == nil {
			t.Fatalf("group %v missing from factorized result", key)
		}
		if !g.ApproxEqual(w, 1e-9) {
			t.Fatalf("group %v: factorized %v, brute force %v", key, g, w)
		}
	}
	if got.NumGroups() != len(want) {
		t.Fatalf("factorized result has %d groups, brute force %d", got.NumGroups(), len(want))
	}
	if !got.Marginal().ApproxEqual(total, 1e-9) {
		t.Fatal("Marginal over groups != plain covariance-ring result")
	}
	var into Covar
	got.MarginalInto(&into)
	if !into.ApproxEqual(total, 1e-9) {
		t.Fatal("MarginalInto != Marginal")
	}
}

func TestCofactorEachSortedAndDecoded(t *testing.T) {
	r := CofactorRing{N: 1, K: 2}
	e := r.Zero()
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{1}, []int{0, 1}, []int32{1, 0}))
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{2}, []int{0, 1}, []int32{0, 1}))
	r.AddInPlace(e, r.LiftCat([]int{0}, []float64{3}, []int{0}, []int32{0})) // slot 1 unbound
	var seen [][2]int32
	e.Each(func(codes []int32, g *Covar) {
		seen = append(seen, [2]int32{codes[0], codes[1]})
	})
	wantOrder := [][2]int32{{0, 1}, {0, -1}, {1, 0}} // packed unbound sorts after bound codes
	if len(seen) != len(wantOrder) {
		t.Fatalf("Each visited %d groups, want %d", len(seen), len(wantOrder))
	}
	for i := range seen {
		if seen[i] != wantOrder[i] {
			t.Fatalf("Each order[%d] = %v, want %v", i, seen[i], wantOrder[i])
		}
	}
}

func TestCatScalarSemantics(t *testing.T) {
	r := CatScalarRing{K: 2}
	a := r.LiftVal([]int{0}, []int32{1}, 3)
	b := r.LiftVal([]int{1}, []int32{2}, 5)
	p := r.Mul(a, b)
	if p.Total() != 15 {
		t.Fatalf("merged product Total = %v, want 15", p.Total())
	}
	conflict := r.Mul(a, r.LiftVal([]int{0}, []int32{2}, 5))
	if !r.IsZero(conflict) {
		t.Fatal("product of scalars disagreeing on a bound slot should be zero")
	}
	sum := r.Clone(p)
	r.AddInPlace(sum, r.Neg(p))
	if !r.IsZero(sum) || len(sum.G) != 0 {
		t.Fatal("scalar cancellation did not prune to the canonical zero")
	}
	lifted := r.Zero()
	r.LiftInto(lifted, nil, []float64{2, 3, 4})
	if got := lifted.Total(); got != 24 {
		t.Fatalf("interface LiftInto Total = %v, want the vals product 24", got)
	}
}
