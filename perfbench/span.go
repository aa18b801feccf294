package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's
// own code around the call. Times are offsets from the tracer's
// origin; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps what one run keeps in memory: a cached-hit window
// issues hundreds of thousands of ops, and a span file past a few
// megabytes helps no one. Spans past the cap are counted, not kept.
const maxSpans = 50000

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced code paths
// pay one nil check per call site.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span // index = ID-1
	dropped int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration, which is
// also measured when untraced.
func (t *tracer) do(name string, parent int64, fn func(id int64)) time.Duration {
	id := t.begin(name, parent)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval covered by its children. Children that overlap each
// other (concurrent calls under one parent) are counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids' intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanReport is the document a traced run writes out.
type spanReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Count    map[string]int     `json:"count"`
	Dropped  int                `json:"dropped"`
	Spans    []span             `json:"spans"`
}

// write emits every recorded span plus the per-name self times as
// JSON to w, and a one-line-per-name self-time summary to log.
func (t *tracer) write(w, log io.Writer, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	rep := spanReport{Workload: workload, Seed: seed, SelfMS: map[string]float64{}, Count: map[string]int{},
		Dropped: dropped, Spans: spans}
	for name, d := range selfTimes(spans) {
		rep.SelfMS[name] = float64(d) / float64(time.Millisecond)
	}
	for _, s := range spans {
		rep.Count[s.Name]++
	}
	names := make([]string, 0, len(rep.SelfMS))
	for n := range rep.SelfMS {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rep.SelfMS[names[i]] > rep.SelfMS[names[j]] })
	for _, n := range names {
		fmt.Fprintf(log, "self %-28s %12.3f ms over %d spans\n", n, rep.SelfMS[n], rep.Count[n])
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}
