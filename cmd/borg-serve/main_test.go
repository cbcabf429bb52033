package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"borg"
)

// newTestService starts a small sharded server behind the HTTP handler,
// mirroring main()'s wiring with an injectable queue reading.
func newTestService(t *testing.T, shards int) (*service, http.Handler) {
	t.Helper()
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := q.ServeSharded([]string{"units", "price", "area"}, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCovar, Workers: 1},
		Shards:        shards,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: 8}
	return svc, newHandler(svc)
}

// TestHTTPServerTimeouts: the server main listens with bounds how long
// a client may take to send its headers and how long a keep-alive
// connection may sit idle.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Fatalf("server = {Addr: %q, Handler: %v}, want the given address and handler", srv.Addr, srv.Handler)
	}
}

// TestReadyzTransitions drives /readyz through its three states: ready
// under normal load, 503 "overloaded" while the queue reads over the
// high-water mark, and 503 "draining" once shutdown flips the flag —
// while /healthz stays 200 throughout, being pure liveness.
func TestReadyzTransitions(t *testing.T) {
	svc, h := newTestService(t, 1)

	code, body, _ := doHeader(h, "GET", "/readyz", "")
	if code != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("fresh server readyz = %d %s, want 200 ready", code, body)
	}

	// Overload: the queue reads above the high-water mark.
	svc.queueLen = func() int { return svc.highWater + 1 }
	code, body, _ = doHeader(h, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"overloaded"`) {
		t.Fatalf("overloaded readyz = %d %s, want 503 overloaded", code, body)
	}
	var over struct {
		Queued    int `json:"queued"`
		HighWater int `json:"high_water"`
	}
	if err := json.Unmarshal([]byte(body), &over); err != nil {
		t.Fatalf("overloaded body: %v", err)
	}
	if over.Queued != svc.highWater+1 || over.HighWater != svc.highWater {
		t.Fatalf("overloaded body carries queued=%d high_water=%d, want %d and %d",
			over.Queued, over.HighWater, svc.highWater+1, svc.highWater)
	}
	if code, _, _ := doHeader(h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz degraded under load: %d, want 200", code)
	}

	// Exactly at the mark is still ready — the boundary is exclusive.
	svc.queueLen = func() int { return svc.highWater }
	if code, body, _ := doHeader(h, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz at high water = %d %s, want 200", code, body)
	}

	// Drained: back to ready.
	svc.queueLen = func() int { return 0 }
	if code, body, _ := doHeader(h, "GET", "/readyz", ""); code != http.StatusOK {
		t.Fatalf("drained readyz = %d %s, want 200", code, body)
	}

	// Draining for shutdown wins over an empty queue.
	svc.draining.Store(true)
	code, body, _ = doHeader(h, "GET", "/readyz", "")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, `"draining"`) {
		t.Fatalf("draining readyz = %d %s, want 503 draining", code, body)
	}
	if code, _, _ := doHeader(h, "GET", "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz degraded while draining: %d, want 200", code)
	}
}

// TestMetricsEndpoint checks the exposition endpoint end to end over a
// sharded server: content type, per-shard labelled series, and the
// /stats metrics block mirroring the registry.
func TestMetricsEndpoint(t *testing.T) {
	svc, h := newTestService(t, 2)
	if code, body, _ := doHeader(h, "POST", "/insert", `[
		{"rel": "Sales", "values": ["patty", "s1", 3]},
		{"rel": "Sales", "values": ["bun", "s2", 4]},
		{"rel": "Items", "values": ["patty", "s1", 6]}
	]`); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}
	if err := svc.srv.Flush(); err != nil {
		t.Fatal(err)
	}

	code, body, hdr := doHeader(h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`borg_shard_routed_total{shard="0"}`,
		`borg_shard_routed_total{shard="1"}`,
		`borg_serve_inserts_total{shard="0"}`,
		"borg_shard_skew",
		"# TYPE borg_serve_queue_wait_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	code, body, _ = doHeader(h, "GET", "/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st struct {
		Metrics []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if len(st.Metrics) < 15 {
		t.Fatalf("stats metrics block has %d series, want >= 15", len(st.Metrics))
	}
	names := make(map[string]bool)
	for _, p := range st.Metrics {
		names[p.Name] = true
	}
	for _, want := range []string{"borg_serve_queue_wait_ns", "borg_shard_skew", "borg_plan_drift"} {
		if !names[want] {
			t.Errorf("stats metrics block missing %s", want)
		}
	}
}

// TestOneshotSelfCheck runs the full CI smoke in-process at an
// interesting configuration, so `go test` alone exercises the same
// path the -oneshot flag does.
func TestOneshotSelfCheck(t *testing.T) {
	db := borg.NewDatabase()
	db.AddRelation("Sales", borg.Cat("item"), borg.Cat("store"), borg.Num("units"))
	db.AddRelation("Items", borg.Cat("item"), borg.Cat("store"), borg.Num("price"))
	db.AddRelation("Stores", borg.Cat("store"), borg.Num("area"))
	q, err := db.Query()
	if err != nil {
		t.Fatal(err)
	}
	feats := append(append([]string(nil), contFeatures...), catFeatures...)
	srv, err := q.ServeSharded(feats, borg.ShardOptions{
		ServerOptions: borg.ServerOptions{Payload: borg.PayloadCofactor, Workers: 1},
		Shards:        2,
		PartitionBy:   "store",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc := &service{srv: srv, queueLen: srv.QueueLen, highWater: 1024}
	if err := selfCheck(srv, svc, newHandler(svc)); err != nil {
		t.Fatal(err)
	}
}

// TestNewLogger pins the flag parsing: every documented level and
// format builds, anything else is rejected.
func TestNewLogger(t *testing.T) {
	for _, level := range []string{"debug", "info", "warn", "error"} {
		for _, format := range []string{"text", "json"} {
			if _, err := newLogger(level, format); err != nil {
				t.Errorf("newLogger(%q, %q): %v", level, format, err)
			}
		}
	}
	if _, err := newLogger("loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := newLogger("info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}
