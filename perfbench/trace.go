package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark around the public function it calls. Parent is the ID of
// the span that caused it (0 for a root); spans of one work item share
// their root's ID as Item.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Item   int64         `json:"item"`
	Pass   string        `json:"pass"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// pass is the pass s belongs to; "" for a nil span (tracing off).
func (s *span) pass() string {
	if s == nil {
		return ""
	}
	return s.Pass
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil for a root span of pass).
func (t *tracer) start(parent *span, pass, layer, name string) *span {
	if t == nil {
		return nil
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &span{ID: t.next, Pass: pass, Layer: layer, Name: name, Start: now, End: -1}
	if parent != nil {
		s.Parent, s.Item = parent.ID, parent.Item
	} else {
		s.Item = s.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes s; a nil span (tracing off) is ignored.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	s.End = now
	t.mu.Unlock()
}

// closed returns the spans of pass that ended, in start order.
func (t *tracer) closed(pass string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.End >= 0 && (pass == "" || s.Pass == pass) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations, in milliseconds, of pass's spans
// named name.
func (t *tracer) durations(pass, name string) []float64 {
	var out []float64
	for _, s := range t.closed(pass) {
		if s.Name == name {
			out = append(out, s.dur().Seconds()*1e3)
		}
	}
	return out
}

// selfKey names what self time is attributed to: a layer and the call.
type selfKey struct{ layer, name string }

// selfTimes returns the self time of each layer's calls: a span's
// duration minus the part of its interval its children cover (children
// running in parallel are merged, so self time is never negative).
// Parallel spans each count in full, so totals can exceed wall time.
func selfTimes(spans []*span) map[selfKey]time.Duration {
	children := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[selfKey]time.Duration{}
	for _, s := range spans {
		self[selfKey{s.Layer, s.Name}] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// writeSelfTable prints pass's self-time table: each layer's total
// and share, then its calls, largest first.
func writeSelfTable(w io.Writer, pass string, spans []*span) {
	self := selfTimes(spans)
	layer := map[string]time.Duration{}
	var total time.Duration
	keys := make([]selfKey, 0, len(self))
	for k, d := range self {
		keys = append(keys, k)
		layer[k.layer] += d
		total += d
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.layer != b.layer {
			return layer[a.layer] > layer[b.layer]
		}
		return self[a] > self[b]
	})
	for i, k := range keys {
		if i == 0 || keys[i-1].layer != k.layer {
			fmt.Fprintf(w, "perfbench: self-time %-12s %-10s %-24s %10.4f s %6.1f%%\n",
				pass, k.layer, "(layer)", layer[k.layer].Seconds(), 100*float64(layer[k.layer])/float64(total))
		}
		fmt.Fprintf(w, "perfbench: self-time %-12s %-10s %-24s %10.4f s\n", pass, k.layer, k.name, self[k].Seconds())
	}
}

// writeJSON writes every recorded span plus each pass's self times, in
// seconds by layer and call.
func (t *tracer) writeJSON(w io.Writer) error {
	spans := t.closed("")
	passes := map[string][]*span{}
	for _, s := range spans {
		passes[s.Pass] = append(passes[s.Pass], s)
	}
	self := map[string]map[string]map[string]float64{}
	for p, ss := range passes {
		self[p] = map[string]map[string]float64{}
		for k, d := range selfTimes(ss) {
			if self[p][k.layer] == nil {
				self[p][k.layer] = map[string]float64{}
			}
			self[p][k.layer][k.name] = d.Seconds()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{"spans": spans, "self_s": self})
}
