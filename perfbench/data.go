package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"borg"
	"borg/internal/ivm"
	"borg/internal/query"
	"borg/internal/relation"
)

// stream is a workload's generated input: a join's schema, the rows that
// prefill it, and a sliding window over fact rows. After the prefill,
// churn op k inserts the next fact (k even) or retracts the oldest live
// one (k odd), so the live state keeps window facts and the cost per op
// repeats.
type stream struct {
	join     *query.Join // source relations: schema and shared dictionaries
	root     string
	cont     []string // continuous features, response included
	cats     []string // categorical features (cofactor group slots)
	ringCats []string // categorical slots of the ring layer's cofactor lifts
	response string
	dims     []ivm.Tuple // dimension rows, loaded first
	facts    []ivm.Tuple // fact rows the window slides over, cyclically
	window   int

	anyDims  [][]any // the same rows as facade values
	anyFacts [][]any
}

// newStream builds a stream over the join's relations: every row of the
// non-fact relations is a dimension row, the fact relation's rows are the
// facts.
func newStream(j *query.Join, fact string, cont, cats []string, response string, window int) (*stream, error) {
	s := &stream{join: j, root: fact, cont: cont, cats: cats, response: response, window: window}
	for _, r := range j.Relations {
		for i := 0; i < r.NumRows(); i++ {
			t := ivm.Tuple{Rel: r.Name, Values: r.Row(i)}
			if r.Name == fact {
				s.facts = append(s.facts, t)
				s.anyFacts = append(s.anyFacts, facadeValues(r, t.Values))
			} else {
				s.dims = append(s.dims, t)
				s.anyDims = append(s.anyDims, facadeValues(r, t.Values))
			}
		}
	}
	if window <= 0 || window >= len(s.facts) {
		return nil, fmt.Errorf("window %d needs 0 < window < %d facts", window, len(s.facts))
	}
	return s, nil
}

// facadeValues renders a row the way the public API takes it: strings
// for categorical values, float64 for continuous ones.
func facadeValues(r *relation.Relation, vals []relation.Value) []any {
	out := make([]any, len(vals))
	for i, a := range r.Attrs() {
		if a.Type == relation.Category {
			out[i] = r.Col(i).Dict.Name(vals[i].C)
		} else {
			out[i] = vals[i].F
		}
	}
	return out
}

// prefill is the set-up load: every dimension row, then the first window
// facts. Its length is the sequence number of the last set-up op.
func (s *stream) prefill() []ivm.Op {
	ops := make([]ivm.Op, 0, len(s.dims)+s.window)
	for _, t := range s.dims {
		ops = append(ops, ivm.Op{Kind: ivm.OpInsert, Tuple: t})
	}
	for _, t := range s.facts[:s.window] {
		ops = append(ops, ivm.Op{Kind: ivm.OpInsert, Tuple: t})
	}
	return ops
}

// factIndex returns churn op k's fact row and whether it is an insert.
func (s *stream) factIndex(k int) (int, bool) {
	if k%2 == 0 {
		return (s.window + k/2) % len(s.facts), true
	}
	return (k / 2) % len(s.facts), false
}

// churn returns churn op k.
func (s *stream) churn(k int) ivm.Op {
	i, insert := s.factIndex(k)
	if insert {
		return ivm.Op{Kind: ivm.OpInsert, Tuple: s.facts[i]}
	}
	return ivm.Op{Kind: ivm.OpDelete, Tuple: s.facts[i]}
}

// survivors lists the live rows after an even number of churn ops.
func (s *stream) survivors(churned int) []ivm.Tuple {
	out := append([]ivm.Tuple(nil), s.dims...)
	for j := 0; j < s.window; j++ {
		out = append(out, s.facts[(churned/2+j)%len(s.facts)])
	}
	return out
}

// emptyJoin is the join over empty copies of the relations, sharing the
// source dictionaries, for standalone maintainers.
func (s *stream) emptyJoin() *query.Join {
	rels := make([]*relation.Relation, len(s.join.Relations))
	for i, r := range s.join.Relations {
		rels[i] = r.CloneEmpty()
	}
	return query.NewJoin(rels...)
}

// facadeDB declares the stream's schema as a public borg.Database and
// appends rows to it through Relation.Append.
func (s *stream) facadeDB(rows []ivm.Tuple) (*borg.Database, error) {
	db := borg.NewDatabase()
	byName := map[string]*relation.Relation{}
	for _, r := range s.join.Relations {
		fields := make([]borg.Field, 0, r.NumAttrs())
		for _, a := range r.Attrs() {
			if a.Type == relation.Category {
				fields = append(fields, borg.Cat(a.Name))
			} else {
				fields = append(fields, borg.Num(a.Name))
			}
		}
		db.AddRelation(r.Name, fields...)
		byName[r.Name] = r
	}
	for _, t := range rows {
		if err := db.Relation(t.Rel).Append(facadeValues(byName[t.Rel], t.Values)...); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// features returns the continuous features without the response.
func (s *stream) features() []string {
	var out []string
	for _, f := range s.cont {
		if f != s.response {
			out = append(out, f)
		}
	}
	return out
}

// load inserts every prefill row through the public API and waits until
// it is applied.
func (s *stream) load(srv borg.Ingestor) error {
	for i, t := range s.dims {
		if err := srv.Insert(t.Rel, s.anyDims[i]...); err != nil {
			return err
		}
	}
	for i := 0; i < s.window; i++ {
		if err := srv.Insert(s.facts[i].Rel, s.anyFacts[i]...); err != nil {
			return err
		}
	}
	return srv.Flush()
}

// apply sends churn op k through the public API.
func (s *stream) apply(srv borg.Ingestor, k int) error {
	i, insert := s.factIndex(k)
	if insert {
		return srv.Insert(s.facts[i].Rel, s.anyFacts[i]...)
	}
	return srv.Delete(s.facts[i].Rel, s.anyFacts[i]...)
}

// pacer is the open-loop schedule: op k is due at start + k/rate,
// whether or not earlier ops have completed.
type pacer struct {
	start  time.Time
	period time.Duration
}

func newPacer(rate float64) pacer {
	return pacer{start: time.Now(), period: time.Duration(float64(time.Second) / rate)}
}

func (p pacer) due(k int) time.Time { return p.start.Add(time.Duration(k) * p.period) }

// pinPacing pins the calling goroutine to its OS thread and drops the
// thread's timer slack to 1ns, so sleepUntil wakes within microseconds:
// the runtime's own timers wake up to a millisecond late on an idle
// host. The returned function unpins.
func pinPacing() func() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: a failure only coarsens pacing
	return runtime.UnlockOSThread
}

// sleepUntil blocks the thread until t with nanosleep; it never spins.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}
