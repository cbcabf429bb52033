package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span buffer; spans past it are counted
// as dropped.
const maxSpans = 2 << 20

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; spans of one op or one training
// rotation share req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (0 when untraced or full).
func (t *tracer) begin(layer, name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTime is one layer's traced time: the sum of its spans' durations
// and of their self time, which excludes the part of each span its
// child spans cover.
type layerTime struct {
	layer      string
	calls      int
	totalNanos int64
	selfNanos  int64
}

// selfTimes computes per-layer self time from the spans.
func (t *tracer) selfTimes() []layerTime {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &layerTime{layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		dur := s.End - s.Start
		lt.calls++
		lt.totalNanos += dur
		lt.selfNanos += dur - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

func (t *tracer) printSelfTimes() {
	fmt.Println("traced self time by layer:")
	for _, lt := range t.selfTimes() {
		fmt.Printf("  %-12s calls=%-9d total=%12.3f ms  self=%12.3f ms\n",
			lt.layer, lt.calls, float64(lt.totalNanos)/1e6, float64(lt.selfNanos)/1e6)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
