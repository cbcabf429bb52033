package main

import (
	"fmt"
	"sync"
	"time"

	"borg"
	"borg/internal/datagen"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/ring"
)

// stream-covar: an in-process borg.Server (F-IVM, covar payload, default
// options) on the Retailer join, fed a sliding window of Inventory facts.
const (
	streamSF     = 0.1   // Retailer scale: 12000 Inventory rows
	streamWindow = 6000  // live facts
	streamRate   = 10000 // paced ops per second, well below capacity
	streamTrain  = 250 * time.Millisecond
	streamRounds = 5
	lambda       = 1e-3
)

// retailerRingCats are the Retailer attributes the ring layer lifts as
// cofactor group slots: category (Item) and rgn_cd (Stores).
var retailerRingCats = []string{"category", "rgn_cd"}

// fixedGD runs exactly MaxIters gradient steps: a tolerance no gradient
// norm reaches keeps the training cost independent of how fast the
// seed's data converges.
var fixedGD = borg.GDOptions{MaxIters: 5000, Tol: 1e-300}

// satShare is the share of a round spent in the saturated phase; the
// rest is the paced phase.
const satShare = 0.35

// covarRotation is the stream-covar model rotation trained from one
// epoch: linreg (with the given GD options), pca and kmeans.
func covarRotation(snap *borg.ServerSnapshot, response string, gd borg.GDOptions, tr *tracer, parent, req int64) (*borg.LinearRegression, error) {
	id := tr.begin("ml", "linreg", parent, req)
	m, err := snap.TrainLinRegGD(response, lambda, gd)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("ml", "pca", parent, req)
	_, err = snap.TrainPCA(2)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("ml", "kmeans", parent, req)
	_, err = snap.KMeansSeeds(3)
	tr.end(id)
	return m, err
}

// streamRun is the state one stream-covar pass shares across rounds.
type streamRun struct {
	s     *stream
	q     *borg.Query
	tr    *tracer
	t     *tally
	p     *pass
	calls latencies // Insert/Delete call durations
	flush latencies // flush barrier after each saturated phase
	due   []time.Duration
}

func runStream(cfg config, seconds float64, tr *tracer) (*pass, error) {
	d := datagen.Retailer(cfg.seed, streamSF)
	s, err := newStream(d.Join, d.Root, append(append([]string(nil), d.Cont...), d.Response), nil, d.Response, streamWindow)
	if err != nil {
		return nil, err
	}
	s.ringCats = retailerRingCats
	roundSecs := seconds / streamRounds
	nPaced := int(roundSecs*(1-satShare)*streamRate) &^ 1
	r := &streamRun{s: s, tr: tr, t: newTally(streamRounds, nPaced), p: &pass{}, due: make([]time.Duration, nPaced)}
	if tr != nil {
		r.calls = make(latencies, 0, 8*streamRounds*nPaced)
	}
	baseMB := liveHeapMB()
	db, err := s.facadeDB(nil)
	if err != nil {
		return nil, err
	}
	if r.q, err = db.Query(); err != nil {
		return nil, err
	}
	r.q.Root = s.root

	for i := 0; i < streamRounds; i++ {
		srv, churned, err := r.round(i, roundSecs, nPaced, baseMB)
		if err != nil {
			return nil, err
		}
		if i < streamRounds-1 {
			if err := srv.Close(); err != nil {
				return nil, err
			}
			continue
		}
		defer srv.Close()
		if err := r.finish(srv, churned); err != nil {
			return nil, err
		}
	}
	return r.p, nil
}

// round sets up a fresh server and runs one saturated and one paced
// phase on it. It returns the server, still open, and the churn ops it
// applied.
func (r *streamRun) round(n int, secs float64, nPaced int, baseMB float64) (*borg.Server, int, error) {
	s, tr, t, p := r.s, r.tr, r.t, r.p
	acks, vis := &t.acks[n], &t.vis[n]
	start := time.Now()
	srv, err := r.q.Serve(s.cont, borg.ServerOptions{Payload: borg.PayloadCovar})
	if err != nil {
		return nil, 0, err
	}
	if err := s.load(srv); err != nil {
		srv.Close()
		return nil, 0, err
	}
	t.setups = append(t.setups, time.Since(start).Seconds())
	prefilled := uint64(len(s.dims) + s.window)

	send := func(k int, req int64) {
		name := "insert"
		if k%2 == 1 {
			name = "delete"
		}
		id := tr.begin("serve", name, 0, req)
		start := time.Now()
		err := s.apply(srv, k)
		if tr != nil {
			r.calls.add(time.Since(start))
		}
		tr.end(id)
		p.attempted++
		if err != nil {
			p.failed++
		}
	}

	// Saturated phase: one closed-loop producer, then a flush barrier.
	satDur := time.Duration(satShare * secs * float64(time.Second))
	k := 0
	satStart := time.Now()
	for time.Since(satStart) < satDur {
		for j := 0; j < 64; j++ {
			send(k, int64(prefilled)+int64(k)+1)
			k++
		}
	}
	id := tr.begin("serve", "flush", 0, 0)
	flushStart := time.Now()
	err = srv.Flush()
	r.flush.add(time.Since(flushStart))
	tr.end(id)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	t.ingests = append(t.ingests, float64(k)/time.Since(satStart).Seconds())
	t.satOps += k
	if snap := srv.CovarSnapshot(); snap.Inserts()+snap.Deletes() < prefilled+uint64(k) {
		p.problems = append(p.problems, "saturated phase: flushed epoch does not cover every op")
	}

	// Paced phase: open loop at streamRate; the producer also observes
	// visibility between sends, and one trainer runs the rotation.
	seq0 := prefilled + uint64(k)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var trains latencies
	trainFails := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(streamTrain)
		defer tick.Stop()
		for n := int64(1); ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			root := tr.begin("ml", "rotation", 0, -n)
			sp := tr.begin("serve", "snapshot", root, -n)
			snap := srv.CovarSnapshot()
			tr.end(sp)
			_, err := covarRotation(snap, s.response, fixedGD, tr, root, -n)
			tr.end(root)
			trains.add(time.Since(start))
			if err != nil {
				trainFails++
			}
		}
	}()
	unpin := pinPacing()
	pc := newPacer(streamRate)
	sent, seen := 0, 0
	observe := func() {
		sp := tr.begin("serve", "snapshot", 0, 0)
		snap := srv.CovarSnapshot()
		tr.end(sp)
		applied := int(snap.Inserts() + snap.Deletes() - seq0)
		now := time.Since(pc.start)
		for ; seen < sent && seen < applied; seen++ {
			vis.add(now - r.due[seen])
		}
	}
	for i := 0; i < nPaced; i++ {
		at := pc.due(i)
		if time.Now().Before(at) {
			observe()
			sleepUntil(at)
		}
		t.lags.add(time.Since(at))
		r.due[i] = at.Sub(pc.start)
		send(k+i, int64(seq0)+int64(i)+1)
		acks.add(time.Since(at))
		sent = i + 1
		observe()
	}
	for by := time.Now().Add(10 * time.Second); seen < sent && time.Now().Before(by); {
		sleepUntil(time.Now().Add(20 * time.Microsecond))
		observe()
	}
	unpin()
	close(stop)
	wg.Wait()
	t.trains = append(t.trains, trains...)
	p.attempted += len(trains)
	p.failed += trainFails
	if seen < sent {
		p.problems = append(p.problems, fmt.Sprintf("paced phase: %d of %d ops never became visible", sent-seen, sent))
	}
	if err := srv.Flush(); err != nil {
		srv.Close()
		return nil, 0, err
	}
	t.mems = append(t.mems, liveHeapMB()-baseMB)
	return srv, k + nPaced, nil
}

// finish checks the last round's server and, on a traced pass, measures
// the layers.
func (r *streamRun) finish(srv *borg.Server, churned int) error {
	s, p := r.s, r.p
	// Correctness: the final covar triple against a fresh F-IVM fed the
	// survivors, and a final rotation, with the batch trainer's GD
	// defaults, against Query.LinearRegression over the survivors.
	snap := srv.CovarSnapshot()
	live := s.survivors(churned)
	ref, err := freshCovar(s, live)
	if err != nil {
		return err
	}
	if msg := compareCovar(snap.Covar(), ref); msg != "" {
		p.problems = append(p.problems, "stream-covar covar triple: "+msg)
	}
	model, err := covarRotation(snap, s.response, borg.GDOptions{}, nil, 0, 0)
	if err != nil {
		return err
	}
	p.problems = append(p.problems, checkLinReg(s, live, model)...)
	r.t.report(p, r.tr != nil)
	if r.tr == nil {
		return nil
	}

	p.layers.addDetail("serve.insert_call_p50_ns", "ns", quantile(r.calls, 0.5), len(r.calls))
	p.layers.addDetail("serve.insert_call_p99_ns", "ns", quantile(r.calls, 0.99), len(r.calls))
	p.layers.addDetail("serve.flush_ms", "ms", r.flush.ms(0.5), len(r.flush))
	p.layers = append(p.layers, serveRegistry(srv.Metrics().Snapshot())...)
	start := time.Now()
	if err := srv.Replan(); err != nil {
		return err
	}
	p.layers.addDetail("plan.replan_ms", "ms", float64(time.Since(start))/1e6, 1)
	sigma, err := ml.SigmaFromCovar(s.cont, s.response, snap.Covar())
	if err != nil {
		return err
	}
	common, err := measureLayers(s, live, ivm.PayloadCovar, sigma, 50000, r.tr)
	if err != nil {
		return err
	}
	p.layers = append(p.layers, common...)
	return nil
}

// checkLinReg compares a served linreg with the batch trainer over the
// survivors.
func checkLinReg(s *stream, live []ivm.Tuple, served *borg.LinearRegression) []string {
	db, err := s.facadeDB(live)
	if err != nil {
		return []string{err.Error()}
	}
	q, err := db.Query()
	if err != nil {
		return []string{err.Error()}
	}
	batch, err := q.LinearRegression(borg.Features{Continuous: s.features()}, s.response, lambda)
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	if !relClose(served.Intercept(), batch.Intercept(), 1e-6) {
		out = append(out, fmt.Sprintf("linreg intercept %v, batch %v", served.Intercept(), batch.Intercept()))
	}
	for _, f := range s.features() {
		a, err1 := served.Coefficient(f)
		b, err2 := batch.Coefficient(f)
		if err1 != nil || err2 != nil || !relClose(a, b, 1e-6) {
			out = append(out, fmt.Sprintf("linreg coefficient %s: served %v, batch %v", f, a, b))
		}
	}
	return out
}

// freshCovar recomputes the covar triple over rows with a new F-IVM.
func freshCovar(s *stream, rows []ivm.Tuple) (*ring.Covar, error) {
	m, err := ivm.NewFIVM(s.join, s.root, s.cont, ivm.WithPayload(ivm.PayloadCovar))
	if err != nil {
		return nil, err
	}
	ops := make([]ivm.Op, len(rows))
	for i, t := range rows {
		ops[i] = ivm.Op{Kind: ivm.OpInsert, Tuple: t}
	}
	if res := m.ApplyBatch(ops); res.Err != nil {
		return nil, res.Err
	}
	return m.Snapshot(), nil
}

// compareCovar checks two covar triples within 1e-9 relative.
func compareCovar(got, want *ring.Covar) string {
	if got.N != want.N || got.Count != want.Count {
		return fmt.Sprintf("count %v (n=%d), recompute %v (n=%d)", got.Count, got.N, want.Count, want.N)
	}
	for i := range want.Sum {
		if !relClose(got.Sum[i], want.Sum[i], 1e-9) {
			return fmt.Sprintf("sum[%d] %v, recompute %v", i, got.Sum[i], want.Sum[i])
		}
	}
	for i := range want.Q {
		if !relClose(got.Q[i], want.Q[i], 1e-9) {
			return fmt.Sprintf("q[%d] %v, recompute %v", i, got.Q[i], want.Q[i])
		}
	}
	return ""
}
