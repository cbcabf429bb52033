package main

import (
	"runtime"
	"testing"
	"time"

	"borg/internal/core"
	"borg/internal/engine"
	"borg/internal/exec"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/obs"
	"borg/internal/plan"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/ring"
)

const (
	replayOps = 40000 // churn ops each replay times
	batchSize = 64    // the serving layer's default BatchSize
	pcaSeed   = 7
)

// measureLayers times every layer that all workloads exercise from
// outside, on the workload's own rows: ring algebra on lifted tuples, an
// ivm replay of the op stream, the exec worker pool, planning, the
// covar trainers, and the LMFAO batch over the survivors. gd is the workload's own linreg
// design and iteration budget, timed as ml.gd_ms.
func measureLayers(s *stream, live []ivm.Tuple, payload ivm.Payload, gd *ml.Sigma, gdIters int, tr *tracer) (report, error) {
	var r report
	ringLayer(&r, s, live)

	pooled, snap, stateMB, err := replay(s, payload, runtime.GOMAXPROCS(0), tr)
	if err != nil {
		return nil, err
	}
	serial, _, _, err := replay(s, payload, 1, tr)
	if err != nil {
		return nil, err
	}
	r.add("ivm.apply_ns_per_op", "ns", pooled.nsPerOp, pooled.ops)
	r.add("ivm.apply_allocs_per_op", "count", pooled.allocsPerOp, pooled.ops)
	r.add("ivm.delta_share", "ratio", pooled.deltaShare, pooled.batches)
	r.add("ivm.snapshot_ns", "ns", pooled.snapshotNs, 200)
	r.add("ivm.state_mb", "MB", stateMB, 1)
	r.add("exec.apply_serial_over_pooled", "ratio", serial.nsPerOp/pooled.nsPerOp, pooled.ops)

	cards := map[string]int{}
	for _, t := range live {
		cards[t.Rel]++
	}
	j := s.emptyJoin()
	newPlan := median(200, func() time.Duration {
		start := time.Now()
		if _, e := plan.New(j, plan.Options{Cardinalities: cards}); e != nil {
			err = e
		}
		return time.Since(start)
	})
	if err != nil {
		return nil, err
	}
	r.add("plan.new_us", "us", float64(newPlan)/1e3, 200)

	if err := mlLayer(&r, s, snap, gd, gdIters, tr); err != nil {
		return nil, err
	}
	if err := coreLayer(&r, s, live, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// lifted is one tuple lifted into both rings.
type lifted struct {
	rel string
	cv  *ring.Covar
	cf  *ring.Cofactor
}

// ringLayer times the Covar and Cofactor algebra on elements lifted from
// the survivors: Mul of two tuples of different relations, AddInPlace of
// a tuple into a running sum, and Clone of that sum.
func ringLayer(r *report, s *stream, live []ivm.Tuple) {
	cats := s.ringCats
	cvr := ring.CovarRing{N: len(s.cont)}
	cfr := ring.CofactorRing{N: len(s.cont), K: len(cats)}
	owner := map[string]string{} // categorical slot → the relation lifting it
	for _, c := range cats {
		for _, rel := range s.join.Relations {
			if rel.HasAttr(c) {
				owner[c] = rel.Name
				break
			}
		}
	}
	rels := map[string]*relation.Relation{}
	for _, rel := range s.join.Relations {
		rels[rel.Name] = rel
	}
	var elems []lifted
	for _, t := range live[:min(len(live), 4000)] {
		rel := rels[t.Rel]
		var idx, catIdx []int
		var vals []float64
		var codes []int32
		for i, f := range s.cont {
			if a := rel.AttrIndex(f); a >= 0 {
				idx, vals = append(idx, i), append(vals, t.Values[a].F)
			}
		}
		for i, c := range cats {
			if owner[c] == t.Rel {
				catIdx, codes = append(catIdx, i), append(codes, t.Values[rel.AttrIndex(c)].C)
			}
		}
		elems = append(elems, lifted{rel: t.Rel, cv: cvr.Lift(idx, vals), cf: cfr.LiftCat(idx, vals, catIdx, codes)})
	}
	// Pairs of tuples from different relations, as a view-tree join
	// multiplies them.
	var pairs [][2]int
	for i := range elems {
		for j := i + 1; j < len(elems) && len(pairs) <= i; j++ {
			if elems[j].rel != elems[i].rel {
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	if len(pairs) == 0 {
		pairs = append(pairs, [2]int{0, 0})
	}
	const reps = 20000
	timeOp := func(f func(i int)) float64 {
		return float64(median(5, func() time.Duration {
			start := time.Now()
			for i := 0; i < reps; i++ {
				f(i)
			}
			return time.Since(start)
		})) / reps
	}
	var cvSink *ring.Covar
	var cfSink *ring.Cofactor
	r.add("ring.covar_mul_ns", "ns", timeOp(func(i int) {
		p := pairs[i%len(pairs)]
		cvSink = cvr.Mul(elems[p[0]].cv, elems[p[1]].cv)
	}), 5*reps)
	r.add("ring.covar_mul_allocs", "count", testing.AllocsPerRun(1000, func() {
		cvSink = cvr.Mul(elems[pairs[0][0]].cv, elems[pairs[0][1]].cv)
	}), 1000)
	cvAcc := cvr.Zero()
	r.add("ring.covar_add_ns", "ns", timeOp(func(i int) { cvAcc.AddInPlace(elems[i%len(elems)].cv) }), 5*reps)
	r.add("ring.cofactor_mul_ns", "ns", timeOp(func(i int) {
		p := pairs[i%len(pairs)]
		cfSink = cfr.Mul(elems[p[0]].cf, elems[p[1]].cf)
	}), 5*reps)
	r.add("ring.cofactor_mul_allocs", "count", testing.AllocsPerRun(1000, func() {
		cfSink = cfr.Mul(elems[pairs[0][0]].cf, elems[pairs[0][1]].cf)
	}), 1000)
	cfAcc := cfr.Zero()
	r.add("ring.cofactor_add_ns", "ns", timeOp(func(i int) { cfr.AddInPlace(cfAcc, elems[i%len(elems)].cf) }), 5*reps)
	cloneNs := median(50, func() time.Duration {
		start := time.Now()
		cfSink = cfr.Clone(cfAcc)
		return time.Since(start)
	})
	r.add("ring.cofactor_clone_ns", "ns", float64(cloneNs), 50)
	r.add("ring.cofactor_groups", "count", float64(cfAcc.NumGroups()), 1)
	_, _ = cvSink, cfSink
}

// replayResult is one replay pass's cost.
type replayResult struct {
	ops, batches int
	nsPerOp      float64
	allocsPerOp  float64
	deltaShare   float64
	snapshotNs   float64
}

// replay feeds the prefill and then the first replayOps churn ops of the
// workload in BatchSize chunks into a standalone F-IVM of the workload's
// payload on the given worker count, timing the churn part. It returns
// the final covar snapshot and the maintainer's live heap.
func replay(s *stream, payload ivm.Payload, workers int, tr *tracer) (replayResult, *ring.Covar, float64, error) {
	var res replayResult
	before := liveHeapMB()
	feats := append([]string(nil), s.cont...)
	if payload == ivm.PayloadCofactor {
		feats = append(feats, s.cats...)
	}
	m, err := ivm.NewFIVM(s.join, s.root, feats, ivm.WithPayload(payload))
	if err != nil {
		return res, nil, 0, err
	}
	rt := exec.Runtime{Workers: workers}
	if workers >= 2 {
		rt.Pool = exec.NewPool(workers)
		defer rt.Pool.Close()
	}
	m.SetRuntime(rt)
	pre := s.prefill()
	for i := 0; i < len(pre); i += batchSize {
		if out := m.ApplyBatch(pre[i:min(i+batchSize, len(pre))]); out.Err != nil {
			return res, nil, 0, out.Err
		}
	}
	buf := make([]ivm.Op, 0, batchSize)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var delta, mutate int64
	start := time.Now()
	for k := 0; k < replayOps; k += batchSize {
		buf = buf[:0]
		for i := k; i < k+batchSize; i++ {
			buf = append(buf, s.churn(i))
		}
		id := tr.begin("ivm", "ApplyBatch", 0, 0)
		out := m.ApplyBatch(buf)
		tr.end(id)
		if out.Err != nil {
			return res, nil, 0, out.Err
		}
		delta += out.DeltaNanos
		mutate += out.MutateNanos
		res.batches++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.ops = replayOps
	res.nsPerOp = float64(elapsed) / replayOps
	res.allocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / replayOps
	res.deltaShare = float64(delta) / float64(delta+mutate)
	dst := m.Snapshot()
	res.snapshotNs = float64(median(200, func() time.Duration {
		start := time.Now()
		if payload == ivm.PayloadCofactor {
			_ = m.SnapshotCofactor()
		} else {
			m.SnapshotInto(dst)
		}
		return time.Since(start)
	}))
	stateMB := liveHeapMB() - before
	runtime.KeepAlive(m)
	return res, m.Snapshot(), stateMB, nil
}

// mlLayer times the covar trainers on one fixed snapshot, and the
// workload's own gradient descent.
func mlLayer(r *report, s *stream, snap *ring.Covar, gd *ml.Sigma, gdIters int, tr *tracer) error {
	feats := append([]string(nil), s.cont...)
	var err error
	timeTrainer := func(name string, f func() error) float64 {
		return float64(median(5, func() time.Duration {
			id := tr.begin("ml", name, 0, 0)
			start := time.Now()
			if e := f(); e != nil {
				err = e
			}
			d := time.Since(start)
			tr.end(id)
			return d
		})) / 1e3
	}
	r.add("ml.train_linreg_us", "us", timeTrainer("linreg", func() error {
		sigma, err := ml.SigmaFromCovar(feats, s.response, snap)
		if err == nil {
			ml.TrainLinRegGD(sigma, lambda, 50000, 1e-10)
		}
		return err
	}), 5)
	r.add("ml.train_pca_us", "us", timeTrainer("pca", func() error {
		sigma, err := ml.MomentsFromCovar(feats, snap)
		if err == nil {
			_, _, err = ml.PCA(sigma, 2, 0, pcaSeed)
		}
		return err
	}), 5)
	r.add("ml.train_kmeans_us", "us", timeTrainer("kmeans", func() error {
		sigma, err := ml.MomentsFromCovar(feats, snap)
		if err == nil {
			_, err = ml.KMeansSeeds(sigma, 3)
		}
		return err
	}), 5)
	if err != nil {
		return err
	}
	var model *ml.LinReg
	gdUs := timeTrainer("gd", func() error {
		model = ml.TrainLinRegGD(gd, lambda, gdIters, 1e-10)
		return nil
	})
	r.add("ml.gd_ms", "ms", gdUs/1e3, 5)
	r.add("ml.gd_iterations", "count", float64(model.Iterations), 1)
	return nil
}

// survivorJoin loads rows into copies of the stream's relations.
func survivorJoin(s *stream, rows []ivm.Tuple) *query.Join {
	j := s.emptyJoin()
	byName := map[string]*relation.Relation{}
	for _, r := range j.Relations {
		byName[r.Name] = r
	}
	for _, t := range rows {
		byName[t.Rel].AppendRow(t.Values...)
	}
	return j
}

// coreFeatures is the LMFAO feature list: continuous features without the
// response, then the categorical ones.
func coreFeatures(s *stream) []core.Feature {
	var out []core.Feature
	for _, f := range s.features() {
		out = append(out, core.Feature{Attr: f})
	}
	for _, c := range s.cats {
		out = append(out, core.Feature{Attr: c, Categorical: true})
	}
	return out
}

// coreLayer times the LMFAO covariance batch over the survivors:
// compile, evaluate at 2 and 1 workers, and the structure-agnostic
// baseline that materialises the join first.
func coreLayer(r *report, s *stream, live []ivm.Tuple, tr *tracer) error {
	j := survivorJoin(s, live)
	p, err := plan.New(j, plan.Options{PinnedRoot: s.root, Static: true})
	if err != nil {
		return err
	}
	specs := core.CovarianceBatch(coreFeatures(s), s.response)
	var compiled *core.Plan
	compile := median(20, func() time.Duration {
		id := tr.begin("core", "Compile", 0, 0)
		start := time.Now()
		c, e := core.Compile(p.Tree, specs, core.Optimized(2))
		d := time.Since(start)
		tr.end(id)
		if e != nil {
			err = e
		}
		compiled = c
		return d
	})
	if err != nil {
		return err
	}
	evalAt := func(workers int) (time.Duration, error) {
		c, err := core.Compile(p.Tree, specs, core.Optimized(workers))
		if err != nil {
			return 0, err
		}
		var evalErr error
		d := median(5, func() time.Duration {
			id := tr.begin("core", "Eval", 0, 0)
			start := time.Now()
			_, e := c.Eval()
			d := time.Since(start)
			tr.end(id)
			if e != nil {
				evalErr = e
			}
			return d
		})
		return d, evalErr
	}
	eval2, err := evalAt(2)
	if err != nil {
		return err
	}
	eval1, err := evalAt(1)
	if err != nil {
		return err
	}
	agnostic := median(3, func() time.Duration {
		id := tr.begin("engine", "MaterializeAndEval", 0, 0)
		start := time.Now()
		if _, e := engine.MaterializeAndEval(j, specs); e != nil {
			err = e
		}
		d := time.Since(start)
		tr.end(id)
		return d
	})
	if err != nil {
		return err
	}
	r.add("core.compile_us", "us", float64(compile)/1e3, 20)
	r.add("core.eval_ms", "ms", float64(eval2)/1e6, 5)
	r.add("core.slots", "count", float64(compiled.SlotCount()), 1)
	r.add("core.aware_over_agnostic", "ratio", float64(agnostic)/float64(compile+eval2), 3)
	r.add("exec.core_serial_over_pooled", "ratio", float64(eval1)/float64(eval2), 5)
	return nil
}

// serveRegistry turns the serving layer's own metric series into
// serve.* and shard.* detail metrics. Sharded servers label every serve
// series by shard: counts add up, p50s are count-weighted and p99s take
// the worst shard.
func serveRegistry(points []obs.MetricPoint) report {
	type hist struct{ count, p50w, p99 float64 }
	hists := map[string]*hist{}
	sums := map[string]float64{}
	for _, p := range points {
		if p.Type == "histogram" {
			h := hists[p.Name]
			if h == nil {
				h = &hist{}
				hists[p.Name] = h
			}
			h.count += float64(p.Count)
			h.p50w += float64(p.Count) * float64(p.P50)
			h.p99 = max(h.p99, float64(p.P99))
			continue
		}
		sums[p.Name] += p.Value
	}
	p50 := func(name string) float64 {
		if h := hists[name]; h != nil && h.count > 0 {
			return h.p50w / h.count
		}
		return 0
	}
	p99 := func(name string) float64 {
		if h := hists[name]; h != nil {
			return h.p99
		}
		return 0
	}
	var r report
	applied := sums["borg_serve_inserts_total"] + sums["borg_serve_deletes_total"]
	r.addDetail("serve.queue_wait_p99_us", "us", p99("borg_serve_queue_wait_ns")/1e3, 1)
	r.addDetail("serve.publish_p50_us", "us", p50("borg_serve_publish_ns")/1e3, 1)
	r.addDetail("serve.batch_size_p50", "count", p50("borg_serve_batch_size"), 1)
	r.addDetail("serve.apply_delta_p50_us", "us", p50("borg_serve_apply_delta_ns")/1e3, 1)
	r.addDetail("serve.apply_mutate_p50_us", "us", p50("borg_serve_apply_mutate_ns")/1e3, 1)
	if applied > 0 {
		r.addDetail("serve.epochs_per_kop", "count", 1e3*sums["borg_serve_epoch"]/applied, 1)
	}
	r.addDetail("serve.rejected_ops", "count", sums["borg_serve_rejected_ops_total"], 1)
	if merges := sums["borg_shard_merges_total"]; merges > 0 {
		r.addDetail("shard.memo_hit_ratio", "ratio", sums["borg_shard_merge_memo_hits_total"]/merges, int(merges))
		r.addDetail("shard.skew", "ratio", sums["borg_shard_skew"], 1)
	}
	return r
}
