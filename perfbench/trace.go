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

// maxSpans bounds the in-memory span log of one run; spans past it are
// counted but not kept.
const maxSpans = 400_000

// span is one timed call into a layer. Spans of one request share req;
// parent is the id of the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// guard and the untraced run pays one nil check per call.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span that started at start and returns its id (-1 when
// tracing is off or the log is full).
func (t *tracer) begin(name string, parent int32, req int64, start time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: -1, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// end closes span id at time at.
func (t *tracer) end(id int32, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// endOf returns when span id ended, or def when it has not ended or
// tracing is off.
func (t *tracer) endOf(id int32, def time.Time) time.Time {
	if t == nil || id < 0 {
		return def
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.spans[id].End; e >= 0 {
		return t.t0.Add(time.Duration(e))
	}
	return def
}

// record adds a finished span.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) int32 {
	id := t.begin(name, parent, req, start)
	t.end(id, end)
	return id
}

// layerTime is the time a layer spent in its own spans.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfUS float64 `json:"self_us"`
	MeanUS float64 `json:"mean_self_us"`
}

// selfTimes computes each span name's self time: the span's duration
// minus the part of its interval that its children cover (children
// clipped to the parent, overlaps counted once). Unfinished spans are
// skipped.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNS(s, spans, children[int32(i)])
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Spans++
		lt.SelfUS += float64(s.End-s.Start-covered) / 1e3
	}
	for _, lt := range out {
		lt.MeanUS = lt.SelfUS / float64(lt.Spans)
	}
	return out
}

// coveredNS returns how much of parent's interval the union of the
// given children covers.
func coveredNS(parent span, spans []span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// snapshot returns a copy of the span log.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTrace writes the span log and the per-layer self times to path
// as JSON lines: one {"span": ...} line per span, then one
// {"layer": ...} line per span name.
func writeTrace(path string, spans []span, self map[string]*layerTime, dropped int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(map[string]span{"span": spans[i]}); err != nil {
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]*layerTime{"layer": self[n]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]int{"dropped_spans": dropped}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
