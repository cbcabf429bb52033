package ivm

import (
	"testing"

	"borg/internal/testdb"
)

// applyBatchAllocs is the measured allocation count of one steady-state
// 64-op batch: the closures applyOps hands the morsel scheduler.
// None of them scales with the batch.
const applyBatchAllocs = 3

// TestApplyBatchAllocs pins the allocation-free propagation contract:
// in steady state, one 64-op insert/retract batch on the root relation
// at a fixed state size allocates applyBatchAllocs times in total,
// whatever the payload ring — every delta, intermediate product and
// effect list comes from reused scratch.
func TestApplyBatchAllocs(t *testing.T) {
	db, j, cont, _ := testdb.RandomStar(windowSpec)
	for _, p := range []Payload{PayloadCovar, PayloadPoly2} {
		m, err := NewFIVM(j, "Fact", cont, WithPayload(p))
		if err != nil {
			t.Fatal(err)
		}
		w := newSlidingWindow(t, m, db, 2000)
		buf := make([]Op, 0, applyBatchSize)
		// Warm the reused storage: every slot, the scratch, the
		// grouping and the indexes' spare buckets.
		for range 8 {
			m.ApplyBatch(w.batch(buf, applyBatchSize))
		}
		var res BatchResult
		allocs := testing.AllocsPerRun(50, func() {
			res = m.ApplyBatch(w.batch(buf, applyBatchSize))
		})
		if res.Err != nil || res.Inserts+res.Deletes != applyBatchSize {
			t.Fatalf("%v: batch applied %d+%d ops, err %v", p, res.Inserts, res.Deletes, res.Err)
		}
		if allocs > applyBatchAllocs {
			t.Errorf("%v: %.0f allocs per %d-op batch, want at most %d", p, allocs, applyBatchSize, applyBatchAllocs)
		}
	}
}
