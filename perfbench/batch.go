package main

import (
	"fmt"
	"math"
	"time"

	"borg"
	"borg/internal/core"
	"borg/internal/datagen"
	"borg/internal/engine"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/plan"
	"borg/internal/query"
)

// batch-lmfao: the paper's batch path. The Retailer rows that
// borg.GenerateDataset builds are loaded through the public API, and
// every training is Query.LinearRegression: one LMFAO covariance batch
// over the join plus gradient descent on the moments. New Inventory rows
// are appended between trainings; a row is visible once a training over
// a database holding it has finished.
const (
	batchSF     = 0.1
	batchLoaded = 8000 // Inventory rows loaded at set-up; later ones are appended
	batchChunk  = 1000 // rows appended per training in the saturated phase
	batchRate   = 1000 // paced appends per second
	batchRounds = 3
	batchLoads  = 7 // set-ups per round
)

func runBatch(cfg config, seconds float64, tr *tracer) (*pass, error) {
	d := datagen.Retailer(cfg.seed, batchSF)
	s, err := newStream(d.Join, d.Root, append(append([]string(nil), d.Cont...), d.Response), d.Cat, d.Response, batchLoaded)
	if err != nil {
		return nil, err
	}
	s.ringCats = retailerRingCats
	feats := borg.Features{Continuous: d.Cont, Categorical: d.Cat}
	roundSecs := seconds / batchRounds
	nPaced := int(roundSecs * (1 - satShare) * batchRate)
	t := newTally(batchRounds, nPaced)
	p := &pass{}
	baseMB := liveHeapMB()

	var q *borg.Query
	var model *borg.LinearRegression
	appended := 0
	for round := 0; round < batchRounds; round++ {
		// Set-up: load the rows and plan the query, batchLoads times,
		// as one load takes only milliseconds.
		var db *borg.Database
		for l := 0; l < batchLoads; l++ {
			start := time.Now()
			if db, err = s.facadeDB(s.survivors(0)); err != nil {
				return nil, err
			}
			if q, err = db.Query(); err != nil {
				return nil, err
			}
			q.Root = s.root
			t.setups = append(t.setups, time.Since(start).Seconds())
		}
		appended = 0
		appendNext := func(req int64) {
			id := tr.begin("relation", "Append", 0, req)
			f := (batchLoaded + appended) % len(s.facts)
			err := db.Relation(s.root).Append(s.anyFacts[f]...)
			tr.end(id)
			appended++
			p.attempted++
			if err != nil {
				p.failed++
			}
		}
		train := func(req int64) time.Duration {
			id := tr.begin("ml", "LinearRegression", 0, req)
			start := time.Now()
			m, err := q.LinearRegression(feats, s.response, lambda)
			d := time.Since(start)
			tr.end(id)
			p.attempted++
			if err != nil {
				p.failed++
			} else {
				model = m
			}
			return d
		}

		// Saturated phase: append a chunk, retrain, repeat.
		satDur := time.Duration(satShare * roundSecs * float64(time.Second))
		satStart := time.Now()
		for r := int64(1); time.Since(satStart) < satDur; r++ {
			for i := 0; i < batchChunk; i++ {
				appendNext(-r)
			}
			train(-r)
		}
		t.ingests = append(t.ingests, float64(appended)/time.Since(satStart).Seconds())
		t.satOps += appended

		// Paced phase: appends fall due at batchRate; each cycle appends
		// every row due so far, then retrains over them.
		unpin := pinPacing()
		pc := newPacer(batchRate)
		for i, r := 0, int64(1); i < nPaced; r++ {
			sleepUntil(pc.due(i))
			first := i
			for ; i < nPaced && !time.Now().Before(pc.due(i)); i++ {
				at := pc.due(i)
				t.lags.add(time.Since(at))
				appendNext(int64(i) + 1)
				t.acks[round].add(time.Since(at))
			}
			t.trains.add(train(r))
			for j := first; j < i; j++ {
				t.vis[round].add(time.Since(pc.due(j)))
			}
		}
		unpin()
		t.mems = append(t.mems, liveHeapMB()-baseMB)
	}

	// Correctness: repeated trainings are bitwise equal, and the LMFAO
	// covariance batch over the same rows equals the materialised join.
	again, err := q.LinearRegression(feats, s.response, lambda)
	if err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("batch-lmfao: no training succeeded")
	}
	if msg := bitwiseEqual(model, again, d.Cont); msg != "" {
		p.problems = append(p.problems, "batch-lmfao repeated training: "+msg)
	}
	rows := s.survivors(0)
	for i := 0; i < appended; i++ {
		rows = append(rows, s.facts[(batchLoaded+i)%len(s.facts)])
	}
	j := survivorJoin(s, rows)
	specs := core.CovarianceBatch(coreFeatures(s), s.response)
	results, err := lmfao(j, s.root, specs)
	if err != nil {
		return nil, err
	}
	want, err := engine.MaterializeAndEval(j, specs)
	if err != nil {
		return nil, err
	}
	if msg := compareAggs(results, want); msg != "" {
		p.problems = append(p.problems, "batch-lmfao covariance batch vs materialised join: "+msg)
	}
	t.report(p, tr != nil)
	if tr == nil {
		return p, nil
	}

	sigma, err := ml.AssembleSigma(d.Cont, d.Cat, s.response, results)
	if err != nil {
		return nil, err
	}
	common, err := measureLayers(s, rows, ivm.PayloadCovar, sigma, 50000, tr)
	if err != nil {
		return nil, err
	}
	p.layers = append(p.layers, common...)
	return p, nil
}

// lmfao evaluates an aggregate batch over the join with the optimised
// LMFAO configuration.
func lmfao(j *query.Join, root string, specs []query.AggSpec) ([]*query.AggResult, error) {
	pl, err := plan.New(j, plan.Options{PinnedRoot: root, Static: true})
	if err != nil {
		return nil, err
	}
	c, err := core.Compile(pl.Tree, specs, core.Optimized(2))
	if err != nil {
		return nil, err
	}
	return c.Eval()
}

// compareAggs checks two aggregate batches within 1e-9 relative.
func compareAggs(got, want []*query.AggResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !relClose(g.Scalar, w.Scalar, 1e-9) || len(g.Groups) != len(w.Groups) {
			return fmt.Sprintf("%s: %v (%d groups), want %v (%d groups)", w.Spec.ID, g.Scalar, len(g.Groups), w.Scalar, len(w.Groups))
		}
		for k, v := range w.Groups {
			if !relClose(g.Groups[k], v, 1e-9) {
				return fmt.Sprintf("%s group %v: %v, want %v", w.Spec.ID, k, g.Groups[k], v)
			}
		}
	}
	return ""
}

// bitwiseEqual compares two trainings' parameters bit for bit.
func bitwiseEqual(a, b *borg.LinearRegression, cont []string) string {
	if math.Float64bits(a.Intercept()) != math.Float64bits(b.Intercept()) {
		return fmt.Sprintf("intercept %v vs %v", a.Intercept(), b.Intercept())
	}
	for _, f := range cont {
		x, err1 := a.Coefficient(f)
		y, err2 := b.Coefficient(f)
		if err1 != nil || err2 != nil || math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Sprintf("coefficient %s: %v vs %v", f, x, y)
		}
	}
	return ""
}
