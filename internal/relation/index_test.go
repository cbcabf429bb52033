package relation

import (
	"slices"
	"testing"

	"borg/internal/xrand"
)

// checkIndex compares ix with the naive model (held id → its key): every
// key's bucket must hold exactly the ids the model gives it, each once,
// and every held id's recorded bucket position must point at itself.
func checkIndex(t *testing.T, ix *Index, model map[int32]uint64, step int) {
	t.Helper()
	want := make(map[uint64][]int32)
	//borg:nondeterministic-ok — builds per-key id sets that are sorted before comparing
	for id, k := range model {
		want[k] = append(want[k], id)
	}
	if ix.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, model has %d keys", step, ix.Len(), len(want))
	}
	//borg:nondeterministic-ok — independent per-key comparisons
	for k, ids := range want {
		got := slices.Clone(ix.Rows(k))
		slices.Sort(got)
		slices.Sort(ids)
		if !slices.Equal(got, ids) {
			t.Fatalf("step %d: Rows(%d) = %v, model holds %v", step, k, got, ids)
		}
	}
	//borg:nondeterministic-ok — independent per-id checks
	for id, k := range model {
		rows := ix.Rows(k)
		if p := ix.pos[id]; int(p) >= len(rows) || rows[p] != id {
			t.Fatalf("step %d: id %d records position %d in bucket %v", step, id, p, rows)
		}
	}
}

// TestIndexMatchesMultisetModel drives random Insert/Remove sequences,
// the swap-renumbering a swap-delete of a row performs on its indexes,
// and removals of absent entries through an Index, starting both from
// an empty index and from one built by BuildIndex, and checks it
// against a naive model after every step.
func TestIndexMatchesMultisetModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		src := xrand.New(seed)
		r := New("r", []Attribute{{Name: "a", Type: Category}, {Name: "b", Type: Category}})
		cols := []int{0, 1}
		// A small key domain gives large buckets, where positions matter.
		randRow := func() { r.AppendRow(CatVal(int32(src.Intn(3))), CatVal(int32(src.Intn(2)))) }
		var ix *Index
		if seed%2 == 0 {
			for range 50 + src.Intn(50) {
				randRow()
			}
			ix = r.BuildIndex(cols)
		} else {
			ix = NewIndex(cols)
		}
		model := make(map[int32]uint64)
		for id := 0; id < r.NumRows(); id++ {
			model[int32(id)] = r.Key(cols, id)
		}
		checkIndex(t, ix, model, -1)

		for step := range 2000 {
			n := r.NumRows()
			switch op := src.Intn(10); {
			case op < 4 || n == 0: // append a row
				randRow()
				k := r.Key(cols, n)
				ix.Insert(k, int32(n))
				model[int32(n)] = k
			case op < 7: // delete a row, renumbering the last into its slot
				row, last := src.Intn(n), n-1
				if !ix.Remove(model[int32(row)], int32(row)) {
					t.Fatalf("step %d: Remove of held row %d reported missing", step, row)
				}
				delete(model, int32(row))
				if row != last {
					k := model[int32(last)]
					if !ix.Remove(k, int32(last)) {
						t.Fatalf("step %d: Remove of held row %d reported missing", step, last)
					}
					ix.Insert(k, int32(row))
					delete(model, int32(last))
					model[int32(row)] = k
				}
				r.SwapDeleteRow(row)
			case op < 8: // move a held id to another key
				id := int32(src.Intn(n))
				k := PackKey2(int32(src.Intn(3)), int32(src.Intn(2)))
				if !ix.Remove(model[id], id) {
					t.Fatalf("step %d: Remove of held id %d reported missing", step, id)
				}
				ix.Insert(k, id)
				model[id] = k
			default: // remove absent entries: unheld ids, and held ids under a wrong key
				for _, id := range []int32{-1, int32(n), int32(n + 1 + src.Intn(5))} {
					if ix.Remove(PackKey2(int32(src.Intn(3)), int32(src.Intn(2))), id) {
						t.Fatalf("step %d: Remove of unheld id %d reported success", step, id)
					}
				}
				id := int32(src.Intn(n))
				if wrong := model[id] ^ 1; ix.Remove(wrong, id) {
					t.Fatalf("step %d: Remove of id %d under key %d it does not carry reported success", step, id, wrong)
				}
			}
			checkIndex(t, ix, model, step)
		}
	}
}
