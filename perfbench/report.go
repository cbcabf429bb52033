package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. n is its sample count: how many
// observations the value summarises. detail metrics are printed but left
// out of the JSON summary: not every workload defines them, or their
// run-to-run spread on a shared 2-vCPU host is wider than any bound the
// summary could gate them with.
type metric struct {
	name   string
	unit   string
	value  float64
	n      int
	detail bool
}

type report []metric

func (r *report) add(name, unit string, value float64, n int) {
	*r = append(*r, metric{name: name, unit: unit, value: value, n: n})
}

// addDetail adds a metric only some workloads define.
func (r *report) addDetail(name, unit string, value float64, n int) {
	*r = append(*r, metric{name: name, unit: unit, value: value, n: n, detail: true})
}

func (r report) get(name string) (metric, bool) {
	for _, m := range r {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r report) print(title string) {
	fmt.Printf("%s:\n", title)
	for _, m := range r {
		mark := ""
		if m.detail {
			mark = "  (detail)"
		}
		fmt.Printf("  %-34s %16.4f %-6s n=%d%s\n", m.name, m.value, m.unit, m.n, mark)
	}
}

// quantile returns the nearest-rank q-quantile of xs (sorting it).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// latencies collects durations in nanoseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)) }

// us and ms return the q-quantile in microseconds or milliseconds.
func (l latencies) us(q float64) float64 { return quantile(l, q) / 1e3 }
func (l latencies) ms(q float64) float64 { return quantile(l, q) / 1e6 }

// relClose reports whether a and b agree within tol relative to the
// larger magnitude (absolute below 1).
func relClose(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// tally collects a workload's samples across its rounds. Each round runs
// on a freshly set-up system. Throughput, set-up time and memory are
// per-round values; ack and visibility percentiles are taken per round.
// All of them are reported as their median over the rounds, so one round
// hit by a burst on a shared host does not set the result. Training
// times are pooled, as a round holds only a few of them.
type tally struct {
	setups, ingests, mems []float64
	satOps                int
	acks, vis             []latencies // per round
	lags, trains          latencies
}

// newTally preallocates every round's sample buffers, so that mem_mb,
// measured against a heap baseline taken after this, excludes them.
func newTally(rounds, perRound int) *tally {
	t := &tally{lags: make(latencies, 0, rounds*perRound), trains: make(latencies, 0, 1<<12)}
	for i := 0; i < rounds; i++ {
		t.acks = append(t.acks, make(latencies, 0, perRound))
		t.vis = append(t.vis, make(latencies, 0, perRound))
	}
	return t
}

// perRound is the median over rounds of each round's q-quantile, in
// microseconds, and the total sample count.
func perRound(rounds []latencies, q float64) (float64, int) {
	var qs []float64
	n := 0
	for _, r := range rounds {
		if len(r) > 0 {
			qs = append(qs, r.us(q))
			n += len(r)
		}
	}
	return quantile(qs, 0.5), n
}

// report adds the end-to-end metrics and, on a traced pass, the load
// generator's own.
func (t *tally) report(p *pass, traced bool) {
	p.e2e.add("setup_s", "s", quantile(t.setups, 0.5), len(t.setups))
	p.e2e.add("ingest_ops_per_s", "1/s", quantile(t.ingests, 0.5), t.satOps)
	ackP50, nAck := perRound(t.acks, 0.5)
	ackP99, _ := perRound(t.acks, 0.99)
	visP50, nVis := perRound(t.vis, 0.5)
	visP99, _ := perRound(t.vis, 0.99)
	p.e2e.addDetail("ack_p50_us", "us", ackP50, nAck)
	p.e2e.addDetail("ack_p99_us", "us", ackP99, nAck)
	p.e2e.add("visible_p50_us", "us", visP50, nVis)
	p.e2e.addDetail("visible_p99_us", "us", visP99, nVis)
	p.e2e.add("train_p50_ms", "ms", t.trains.ms(0.5), len(t.trains))
	p.e2e.addDetail("train_p90_ms", "ms", t.trains.ms(0.9), len(t.trains))
	p.e2e.add("mem_mb", "MB", quantile(t.mems, 0.5), len(t.mems))
	p.e2e.addDetail("failed_frac", "ratio", float64(p.failed)/float64(p.attempted), p.attempted)
	if traced {
		p.layers.add("loadgen.lag_p99_us", "us", t.lags.us(0.99), len(t.lags))
		p.layers.add("loadgen.samples_visible", "count", float64(nVis), 1)
		p.layers.add("loadgen.samples_train", "count", float64(len(t.trains)), 1)
	}
}
