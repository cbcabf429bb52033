package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"borg"
	"borg/internal/ivm"
	"borg/internal/ml"
	"borg/internal/obs"
	"borg/internal/query"
	"borg/internal/relation"
	"borg/internal/xrand"
)

// http-cofactor: the borg-serve binary built from this checkout, run as
// a child with -shards 2 and its default cofactor payload, fed a sliding
// window of Sales rows over HTTP. The ingest connection also polls
// /stats for visibility; a second connection requests the model zoo.
const (
	httpStores  = 20
	httpItems   = 100 // per store: about 900 (item, store) groups live in the window
	httpFacts   = 12000
	httpWindow  = 6000
	httpShards  = 2
	httpSatOps  = 64                     // ops per POST /insert array, saturated phase
	httpChunk   = 8                      // ops per POST /insert array, paced phase
	httpReqRate = 125                    // paced requests per second
	httpRotGap  = 400 * time.Millisecond // one zoo rotation, its models back to back, per gap
	httpIters   = 1000                   // linreg GD budget of the rotation
	httpRounds  = 5
)

// httpRotation is the zoo rotation, one request body per kind.
var httpRotation = []struct{ kind, body string }{
	{"linreg", `{"kind":"linreg","params":{"response":"units","lambda":0.001,"max_iters":` + strconv.Itoa(httpIters) + `}}`},
	{"polyreg", `{"kind":"polyreg","params":{"response":"units","lambda":0.001}}`},
	{"ctree", `{"kind":"ctree","params":{"response":"units","max_depth":4}}`},
	{"svm", `{"kind":"svm","params":{"response":"units","lambda":0.01}}`},
	{"chowliu", `{"kind":"chowliu"}`},
}

// tenantStream generates borg-serve's demo schema: Stores(store, area),
// Items(item, store, price) for every item of every store, and Sales
// facts with Zipf-skewed stores.
func tenantStream(seed uint64) (*stream, error) {
	src := xrand.New(seed)
	db := relation.NewDatabase()
	sales := db.NewRelation("Sales", []relation.Attribute{{Name: "item", Type: relation.Category}, {Name: "store", Type: relation.Category}, {Name: "units", Type: relation.Double}})
	items := db.NewRelation("Items", []relation.Attribute{{Name: "item", Type: relation.Category}, {Name: "store", Type: relation.Category}, {Name: "price", Type: relation.Double}})
	stores := db.NewRelation("Stores", []relation.Attribute{{Name: "store", Type: relation.Category}, {Name: "area", Type: relation.Double}})
	itemCode, storeCode := make([]int32, httpItems), make([]int32, httpStores)
	for i := range itemCode {
		itemCode[i] = db.Dict("item").Code("i" + strconv.Itoa(i))
	}
	area := make([]float64, httpStores)
	for s := range storeCode {
		storeCode[s] = db.Dict("store").Code("s" + strconv.Itoa(s))
		area[s] = 50 + 200*src.Float64()
		stores.AppendRow(relation.CatVal(storeCode[s]), relation.FloatVal(area[s]))
	}
	price := make([]float64, httpStores*httpItems)
	for s := 0; s < httpStores; s++ {
		for i := 0; i < httpItems; i++ {
			price[s*httpItems+i] = 1 + 20*src.Float64()
			items.AppendRow(relation.CatVal(itemCode[i]), relation.CatVal(storeCode[s]), relation.FloatVal(price[s*httpItems+i]))
		}
	}
	storeZipf := xrand.NewZipf(src, 1.05, httpStores)
	for f := 0; f < httpFacts; f++ {
		s, i := storeZipf.Next(), src.Intn(httpItems)
		units := 30 - 0.8*price[s*httpItems+i] + 0.05*area[s] + 2*src.NormFloat64()
		sales.AppendRow(relation.CatVal(itemCode[i]), relation.CatVal(storeCode[s]), relation.FloatVal(units))
	}
	st, err := newStream(query.NewJoin(sales, items, stores), "Sales", []string{"units", "price", "area"}, []string{"item", "store"}, "units", httpWindow)
	if err != nil {
		return nil, err
	}
	st.ringCats = st.cats
	return st, nil
}

// insertBody renders rows as one POST /insert array.
func insertBody(rows []ivm.Tuple, anyRows [][]any, deletes []bool) []byte {
	type req struct {
		Rel    string `json:"rel"`
		Values []any  `json:"values"`
		Op     string `json:"op,omitempty"`
	}
	reqs := make([]req, len(rows))
	for i, t := range rows {
		reqs[i] = req{Rel: t.Rel, Values: anyRows[i]}
		if deletes != nil && deletes[i] {
			reqs[i].Op = "delete"
		}
	}
	b, _ := json.Marshal(reqs) // plain strings and floats always marshal
	return b
}

// childServer is one borg-serve process.
type childServer struct {
	cmd  *exec.Cmd
	base string
}

// startChild launches borg-serve on a free loopback port and waits
// until /healthz answers.
func startChild(bin string, client *http.Client) (*childServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-shards", strconv.Itoa(httpShards))
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start borg-serve: %w", err)
	}
	c := &childServer{cmd: cmd, base: "http://" + addr}
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if resp, err := client.Get(c.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return c, nil
		}
	}
	c.stop()
	return nil, fmt.Errorf("borg-serve did not answer on %s", addr)
}

// stop terminates the child, waits for it, and returns its peak RSS in
// MB.
func (c *childServer) stop() float64 {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = c.cmd.Wait() // the exit status of a terminated child carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-done
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// do issues one request and returns the status and body.
func do(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statsBody is the part of GET /stats the benchmark reads.
type statsBody struct {
	Inserts uint64            `json:"inserts"`
	Deletes uint64            `json:"deletes"`
	Count   float64           `json:"count"`
	Shards  []shardRow        `json:"shards"`
	Metrics []obs.MetricPoint `json:"metrics"`
}

// shardRow is one shard's published op counts in GET /stats.
type shardRow struct {
	Inserts uint64 `json:"inserts"`
	Deletes uint64 `json:"deletes"`
}

// covers reports whether every shard has published at least want[sh]
// ops.
func covers(rows []shardRow, want *[httpShards]uint64) bool {
	if len(rows) != httpShards {
		return false
	}
	for sh, r := range rows {
		if r.Inserts+r.Deletes < want[sh] {
			return false
		}
	}
	return true
}

// pollShards is one visibility poll: GET /stats, decoding only the
// per-shard rows.
func pollShards(client *http.Client, base string) ([]shardRow, error) {
	code, b, err := do(client, "GET", base+"/stats", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /stats: %d %s", code, b)
	}
	var st struct {
		Shards []shardRow `json:"shards"`
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st.Shards, err
}

func getStats(client *http.Client, base string) (statsBody, error) {
	var st statsBody
	code, b, err := do(client, "GET", base+"/stats", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /stats: %d %s", code, b)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// oneConn is a client that holds at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}, Timeout: 30 * time.Second}
}

func runHTTP(cfg config, seconds float64, tr *tracer) (*pass, error) {
	s, err := tenantStream(cfg.seed)
	if err != nil {
		return nil, err
	}
	// Pre-rendered request bodies: the prefill in arrays of 256 rows, the
	// churn in arrays of httpSatOps ops for the saturated phase and of
	// httpChunk ops for the paced phase.
	pre := s.prefill()
	var preBodies [][]byte
	preAny := append(append([][]any(nil), s.anyDims...), s.anyFacts[:s.window]...)
	for i := 0; i < len(pre); i += 256 {
		j := min(i+256, len(pre))
		rows := make([]ivm.Tuple, j-i)
		for k := range rows {
			rows[k] = pre[i+k].Tuple
		}
		preBodies = append(preBodies, insertBody(rows, preAny[i:j], nil))
	}
	chunkBody := func(k, n int) []byte {
		rows, anyRows, dels := make([]ivm.Tuple, n), make([][]any, n), make([]bool, n)
		for i := range rows {
			f, insert := s.factIndex(k + i)
			rows[i], anyRows[i], dels[i] = s.facts[f], s.anyFacts[f], !insert
		}
		return insertBody(rows, anyRows, dels)
	}
	// Churn bodies repeat with the fact cycle. shardOps counts each
	// body's ops per shard of the child.
	routes, err := storeShards(s)
	if err != nil {
		return nil, err
	}
	period := 2 * len(s.facts)
	satBodies := make([][]byte, period/httpSatOps)
	for c := range satBodies {
		satBodies[c] = chunkBody(c*httpSatOps, httpSatOps)
	}
	bodies := make([][]byte, period/httpChunk)
	shardOps := make([][httpShards]uint64, len(bodies))
	for c := range bodies {
		bodies[c] = chunkBody(c*httpChunk, httpChunk)
		for i := 0; i < httpChunk; i++ {
			f, _ := s.factIndex(c*httpChunk + i)
			shardOps[c][routes[s.anyFacts[f][1].(string)]]++ // Sales(item, store, units)
		}
	}

	conn1, conn2 := oneConn(), oneConn()
	defer conn1.CloseIdleConnections()
	defer conn2.CloseIdleConnections()
	roundSecs := seconds / httpRounds
	nPaced := int(roundSecs * (1 - satShare) * httpReqRate)
	h := &httpRun{s: s, tr: tr, t: newTally(httpRounds, nPaced), p: &pass{}, conn1: conn1, conn2: conn2,
		preBodies: preBodies, satBodies: satBodies, bodies: bodies, shardOps: shardOps, prefilled: uint64(len(pre)),
		due: make([]time.Duration, nPaced), wants: make([][httpShards]uint64, nPaced), rng: xrand.New(cfg.seed)}
	for i := 0; i < httpRounds; i++ {
		child, churned, err := h.round(i, cfg.serveBin, roundSecs, nPaced)
		if err != nil {
			return nil, err
		}
		if i == httpRounds-1 {
			err = h.finish(child, churned)
		}
		h.t.mems = append(h.t.mems, child.stop())
		if err != nil {
			return nil, err
		}
	}
	h.t.report(h.p, tr != nil)
	if tr != nil {
		h.p.layers = append(h.p.layers, h.layers...)
	}
	return h.p, nil
}

// storeShards finds the child's shard for every store. The child hashes
// the dictionary code its facade gives a store, and codes follow first
// appearance. An in-process server of the same configuration, fed the
// same dimension rows in the same order, gives the same codes, so
// probing it with one fact per store reproduces the child's routing.
func storeShards(s *stream) (map[string]int, error) {
	ref, err := referenceServer(s, s.dims)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	routes := map[string]int{}
	for _, vals := range s.anyFacts {
		store := vals[1].(string) // Sales(item, store, units)
		if _, ok := routes[store]; ok {
			continue
		}
		before := ref.Stats().Shards
		if err := ref.Insert("Sales", vals...); err != nil {
			return nil, err
		}
		if err := ref.Flush(); err != nil {
			return nil, err
		}
		for sh, row := range ref.Stats().Shards {
			if row.Inserts > before[sh].Inserts {
				routes[store] = sh
			}
		}
		if _, ok := routes[store]; !ok {
			return nil, fmt.Errorf("store %s: no shard published its probe row", store)
		}
	}
	return routes, nil
}

// httpRun is the state one http-cofactor pass shares across rounds.
type httpRun struct {
	s                      *stream
	tr                     *tracer
	t                      *tally
	p                      *pass
	conn1, conn2           *http.Client
	preBodies, satBodies   [][]byte
	bodies                 [][]byte             // paced phase
	shardOps               [][httpShards]uint64 // per paced body: its ops on each shard
	prefilled              uint64
	due                    []time.Duration
	wants                  [][httpShards]uint64 // per paced request: each shard's count that covers it
	rng                    *xrand.Source        // poll dither
	inserts, stats, models latencies
	non2xx                 int
	layers                 report // measured after the last round
}

// round starts a fresh child, prefills it, and runs one saturated and
// one paced phase. It returns the child, still running, and the churn
// ops it applied.
func (h *httpRun) round(n int, bin string, secs float64, nPaced int) (*childServer, int, error) {
	tr, t, p, conn1, conn2 := h.tr, h.t, h.p, h.conn1, h.conn2
	start := time.Now()
	child, err := startChild(bin, conn1)
	if err != nil {
		return nil, 0, err
	}
	for _, b := range h.preBodies {
		if code, resp, err := do(conn1, "POST", child.base+"/insert", b); err != nil || code != http.StatusOK {
			child.stop()
			return nil, 0, fmt.Errorf("prefill: %d %s %v", code, resp, err)
		}
	}
	if _, err := waitApplied(conn1, child.base, h.prefilled, 20*time.Second); err != nil {
		child.stop()
		return nil, 0, err
	}
	t.setups = append(t.setups, time.Since(start).Seconds())

	// post sends the churn ops k.. as one array of n ops.
	post := func(bodies [][]byte, k, n int) {
		id := tr.begin("borg-serve", "POST /insert", 0, int64(k)+1)
		start := time.Now()
		code, _, err := do(conn1, "POST", child.base+"/insert", bodies[k/n%len(bodies)])
		h.inserts.add(time.Since(start))
		tr.end(id)
		p.attempted += n
		if err != nil || code != http.StatusOK {
			p.failed += n
			h.non2xx++
		}
	}

	// Saturated phase: connection 1 posts in a closed loop.
	satDur := time.Duration(satShare * secs * float64(time.Second))
	k := 0
	satStart := time.Now()
	for time.Since(satStart) < satDur {
		post(h.satBodies, k, httpSatOps)
		k += httpSatOps
	}
	st, err := waitApplied(conn1, child.base, h.prefilled+uint64(k), 20*time.Second)
	if err == nil && len(st.Shards) != httpShards {
		err = fmt.Errorf("GET /stats lists %d shards, want %d", len(st.Shards), httpShards)
	}
	if err != nil {
		child.stop()
		return nil, 0, err
	}
	t.ingests = append(t.ingests, float64(k)/time.Since(satStart).Seconds())
	t.satOps += k
	// Every op sent so far is published: these are each shard's totals.
	var want [httpShards]uint64
	for sh, row := range st.Shards {
		want[sh] = row.Inserts + row.Deletes
	}

	// Paced phase. Connection 1 posts on an open-loop schedule. While a
	// sent request is not yet observed visible, it polls /stats in the
	// idle time before the next due time, starting after a random part
	// of one poll's duration so that polls are not phase-locked to
	// sends. Connection 2 requests the zoo rotation, its models back to
	// back, every httpRotGap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var trains latencies
	modelFails, requests := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(httpRotGap)
		defer tick.Stop()
		for req := int64(-1); ; req-- {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			root := tr.begin("borg-serve", "rotation", 0, req)
			start := time.Now()
			for _, m := range httpRotation {
				id := tr.begin("borg-serve", "POST /v1/model "+m.kind, root, req)
				mStart := time.Now()
				code, _, err := do(conn2, "POST", child.base+"/v1/model", []byte(m.body))
				h.models.add(time.Since(mStart))
				tr.end(id)
				requests++
				if err != nil || code != http.StatusOK {
					modelFails++
				}
			}
			trains.add(time.Since(start))
			tr.end(root)
		}
	}()
	pc := newPacer(httpReqRate)
	vis := &t.vis[n]
	sent, seen := 0, 0
	var cost time.Duration // moving average of the poll duration
	// A request is observed visible when the first poll that reports it
	// was sent: the server reads the epoch after that instant, and the
	// previous poll's read did not cover the request yet. The response
	// time of /stats itself is borg-serve.stats_p50_us.
	poll := func() error {
		id := tr.begin("borg-serve", "GET /stats", 0, 0)
		start := time.Now()
		rows, err := pollShards(conn1, child.base)
		d := time.Since(start)
		tr.end(id)
		cost += (d - cost) / 8
		h.stats.add(d)
		for now := start.Sub(pc.start); err == nil && seen < sent && covers(rows, &h.wants[seen]); seen++ {
			vis.add(now - h.due[seen])
		}
		return err
	}
	unpin := pinPacing()
	for i := 0; i < nPaced && err == nil; i++ {
		at := pc.due(i)
		sleepUntil(at)
		t.lags.add(time.Since(at))
		h.due[i] = at.Sub(pc.start)
		op := k + i*httpChunk
		for sh, ops := range h.shardOps[op/httpChunk%len(h.bodies)] {
			want[sh] += ops
		}
		h.wants[i] = want
		post(h.bodies, op, httpChunk)
		t.acks[n].add(time.Since(at))
		sent = i + 1
		// The first poll of a gap runs whenever it starts before the next
		// due time, so the average keeps tracking the poll duration;
		// further polls run only if they fit.
		next := pc.due(i + 1)
		if first := time.Now().Add(time.Duration(h.rng.Float64() * float64(cost))); first.Before(next) {
			sleepUntil(first)
			err = poll()
			for err == nil && seen < sent && time.Until(next) > cost {
				err = poll()
			}
		}
	}
	unpin()
	// The last requests: poll until each is observed.
	for by := time.Now().Add(10 * time.Second); err == nil && seen < sent && time.Now().Before(by); {
		err = poll()
	}
	close(stop)
	wg.Wait()
	if err != nil {
		child.stop()
		return nil, 0, err
	}
	t.trains = append(t.trains, trains...)
	p.attempted += requests
	p.failed += modelFails
	h.non2xx += modelFails
	if seen < nPaced {
		p.problems = append(p.problems, fmt.Sprintf("paced phase: %d of %d requests never observed visible", nPaced-seen, nPaced))
	}
	return child, k + nPaced*httpChunk, nil
}

// finish checks the last round's child against an in-process reference
// and, on a traced pass, measures the layers.
func (h *httpRun) finish(child *childServer, churned int) error {
	s, p := h.s, h.p
	// Correctness: /stats count and a /v1/model linreg against an
	// in-process sharded server of the same configuration fed the
	// survivors.
	live := s.survivors(churned)
	ref, err := referenceServer(s, live)
	if err != nil {
		return err
	}
	defer ref.Close()
	refSnap := ref.CovarSnapshot()
	final, err := getStats(h.conn1, child.base)
	if err != nil {
		return err
	}
	if final.Count != refSnap.Count() {
		p.problems = append(p.problems, fmt.Sprintf("/stats count %v, in-process reference %v", final.Count, refSnap.Count()))
	}
	// The (item, store) groups of the first live facts of four distinct
	// stores, for the prediction check.
	var groups [][]any
	stores := map[any]bool{}
	for j := 0; j < s.window && len(groups) < 4; j++ {
		if vals := s.anyFacts[(churned/2+j)%len(s.facts)]; !stores[vals[1]] { // Sales(item, store, units)
			stores[vals[1]] = true
			groups = append(groups, vals)
		}
	}
	p.problems = append(p.problems, checkServedLinReg(h.conn1, child.base, refSnap, groups)...)
	if h.tr == nil {
		return nil
	}

	r := &h.layers
	r.addDetail("borg-serve.insert_p50_us", "us", h.inserts.us(0.5), len(h.inserts))
	r.addDetail("borg-serve.insert_p99_us", "us", h.inserts.us(0.99), len(h.inserts))
	r.addDetail("borg-serve.stats_p50_us", "us", h.stats.us(0.5), len(h.stats))
	r.addDetail("borg-serve.model_p50_ms", "ms", h.models.ms(0.5), len(h.models))
	r.addDetail("borg-serve.non2xx", "count", float64(h.non2xx), p.attempted)
	*r = append(*r, serveRegistry(final.Metrics)...)
	if err := referenceLayers(r, ref, s, h.tr); err != nil {
		return err
	}
	sigma, err := ml.SigmaFromCofactor(s.cont, s.cats, s.response, refSnap.Cofactor())
	if err != nil {
		return err
	}
	common, err := measureLayers(s, live, ivm.PayloadCofactor, sigma, httpIters, h.tr)
	if err != nil {
		return err
	}
	*r = append(*r, common...)
	return nil
}

// waitApplied polls /stats until the server has applied n ops.
func waitApplied(client *http.Client, base string, n uint64, timeout time.Duration) (statsBody, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := getStats(client, base)
		if err != nil {
			return st, err
		}
		if st.Inserts+st.Deletes >= n {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("borg-serve applied %d of %d ops within %v", st.Inserts+st.Deletes, n, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// referenceServer is an in-process sharded server configured as the
// child is, fed the survivors.
func referenceServer(s *stream, live []ivm.Tuple) (*borg.ShardedServer, error) {
	db, err := s.facadeDB(nil)
	if err != nil {
		return nil, err
	}
	q, err := db.Query()
	if err != nil {
		return nil, err
	}
	ref, err := q.ServeSharded(append(append([]string(nil), s.cont...), s.cats...), borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCofactor, Workers: 2},
		Shards:        httpShards,
		PartitionBy:   "store",
	})
	if err != nil {
		return nil, err
	}
	rels := map[string]*relation.Relation{}
	for _, r := range s.join.Relations {
		rels[r.Name] = r
	}
	for _, t := range live {
		if err := ref.Insert(t.Rel, facadeValues(rels[t.Rel], t.Values)...); err != nil {
			ref.Close()
			return nil, err
		}
	}
	if err := ref.Flush(); err != nil {
		ref.Close()
		return nil, err
	}
	return ref, nil
}

// checkServedLinReg compares the child's linreg with the reference's:
// the intercept and continuous coefficients, and predictions for a few
// live (item, store) groups, which read the one-hot category weights.
func checkServedLinReg(client *http.Client, base string, ref *borg.ServerSnapshot, groups [][]any) []string {
	want, err := ref.TrainLinRegGD("units", 0.001, borg.GDOptions{MaxIters: httpIters})
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	train := func(body []byte, v any) bool {
		code, b, err := do(client, "POST", base+"/v1/model", body)
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(b, v)
		}
		if err != nil || code != http.StatusOK {
			out = append(out, fmt.Sprintf("final /v1/model linreg: %d %s %v", code, b, err))
			return false
		}
		return true
	}
	var served struct {
		Intercept    float64            `json:"intercept"`
		Coefficients map[string]float64 `json:"coefficients"`
	}
	if !train([]byte(httpRotation[0].body), &served) {
		return out
	}
	if !relClose(served.Intercept, want.Intercept(), 1e-6) {
		out = append(out, fmt.Sprintf("/v1/model linreg intercept %v, reference %v", served.Intercept, want.Intercept()))
	}
	for f, got := range served.Coefficients {
		if w, err := want.Coefficient(f); err != nil || !relClose(got, w, 1e-6) {
			out = append(out, fmt.Sprintf("/v1/model linreg %s: %v, reference %v", f, got, w))
		}
	}
	if len(served.Coefficients) == 0 {
		out = append(out, "/v1/model linreg returned no coefficients")
	}

	values := map[string]float64{"price": 6, "area": 120}
	for _, g := range groups {
		cats := map[string]string{"item": g[0].(string), "store": g[1].(string)} // Sales(item, store, units)
		// Strings and floats always marshal.
		body, _ := json.Marshal(map[string]any{
			"kind":    "linreg",
			"params":  map[string]any{"response": "units", "lambda": 0.001, "max_iters": httpIters},
			"predict": map[string]any{"values": values, "cats": cats},
		})
		var pred struct {
			Prediction float64 `json:"prediction"`
		}
		if !train(body, &pred) {
			return out
		}
		if w, err := want.PredictCat(values, cats); err != nil || !relClose(pred.Prediction, w, 1e-6) {
			out = append(out, fmt.Sprintf("/v1/model linreg prediction for %v: %v, reference %v (%v)", cats, pred.Prediction, w, err))
		}
	}
	return out
}

// referenceLayers measures, on the in-process reference, the layers the
// child runs out of reach: the categorical trainers, the merged shard
// read, the metrics registry, and a replan.
func referenceLayers(r *report, ref *borg.ShardedServer, s *stream, tr *tracer) error {
	snap := ref.CovarSnapshot()
	var err error
	trainer := func(name string, f func() error) {
		d := median(5, func() time.Duration {
			id := tr.begin("ml", name, 0, 0)
			start := time.Now()
			if e := f(); e != nil {
				err = e
			}
			d := time.Since(start)
			tr.end(id)
			return d
		})
		r.addDetail("ml.train_"+name+"_us", "us", float64(d)/1e3, 5)
	}
	trainer("linreg_cat", func() error {
		_, err := snap.TrainLinRegGD("units", 0.001, borg.GDOptions{MaxIters: httpIters})
		return err
	})
	trainer("polyreg", func() error { _, err := snap.TrainPolyReg("units", 0.001); return err })
	trainer("ctree", func() error { _, err := snap.TrainCTree("units", borg.TreeOptions{MaxDepth: 4}); return err })
	trainer("svm", func() error { _, err := snap.TrainSVM("units", 0.01); return err })
	trainer("chowliu", func() error { _, err := snap.TrainChowLiu(); return err })
	if err != nil {
		return err
	}

	// A merged read just after a publish folds the shards for real: each
	// round inserts and retracts one row, then times the read.
	row := s.anyFacts[0]
	merged := median(50, func() time.Duration {
		if e := ref.Insert("Sales", row...); e != nil {
			err = e
		}
		if e := ref.Delete("Sales", row...); e != nil {
			err = e
		}
		if e := ref.Flush(); e != nil {
			err = e
		}
		id := tr.begin("shard", "Snapshot", 0, 0)
		start := time.Now()
		_ = ref.CovarSnapshot()
		d := time.Since(start)
		tr.end(id)
		return d
	})
	if err != nil {
		return err
	}
	r.addDetail("shard.merged_read_ns", "ns", float64(merged), 50)

	reg := ref.Metrics()
	snapUs := median(200, func() time.Duration {
		id := tr.begin("obs", "Snapshot", 0, 0)
		start := time.Now()
		_ = reg.Snapshot()
		d := time.Since(start)
		tr.end(id)
		return d
	})
	expoUs := median(200, func() time.Duration {
		id := tr.begin("obs", "WriteExposition", 0, 0)
		start := time.Now()
		if e := reg.WriteExposition(io.Discard); e != nil {
			err = e
		}
		d := time.Since(start)
		tr.end(id)
		return d
	})
	if err != nil {
		return err
	}
	r.addDetail("obs.snapshot_us", "us", float64(snapUs)/1e3, 200)
	r.addDetail("obs.exposition_us", "us", float64(expoUs)/1e3, 200)

	start := time.Now()
	if err := ref.Replan(); err != nil {
		return err
	}
	r.addDetail("plan.replan_ms", "ms", float64(time.Since(start))/1e6, 1)
	return nil
}
