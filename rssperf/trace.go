package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rsskv/internal/wire"
)

// span is one timed interval of the traced run. Parent indexes the same
// tracer's spans; -1 is the tracer's root (the timed-phase span for a
// session tracer, nothing for the main tracer).
type span struct {
	name       string
	parent     int32
	sess       int32
	start, end int64 // nanoseconds since the run's base
}

// tracer keeps spans in memory for one goroutine. A nil *tracer records
// nothing, which is how the untraced runs pay no tracing cost.
type tracer struct {
	base  time.Time
	sess  int32
	spans []span
}

func newTracer(base time.Time, sess int32) *tracer {
	return &tracer{base: base, sess: sess}
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, sess: t.sess, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
}

// reserve grows the span buffer so the next n spans do not allocate; the
// replays call it before counting their own allocations.
func (t *tracer) reserve(n int) {
	if t != nil && cap(t.spans)-len(t.spans) < n {
		s := make([]span, len(t.spans), 2*cap(t.spans)+n)
		copy(s, t.spans)
		t.spans = s
	}
}

// flatten joins the main tracer and the session tracers into one span
// list with global parent indexes; session roots hang under timedSpan.
func flatten(main *tracer, sess []*tracer, timedSpan int32) []span {
	out := append([]span(nil), main.spans...)
	for _, st := range sess {
		off := int32(len(out))
		for _, s := range st.spans {
			if s.parent < 0 {
				s.parent = timedSpan
			} else {
				s.parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTime is one span name's aggregate: how many spans, their summed
// duration, and their summed self time (duration minus the union of the
// intervals their children cover).
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func selfTimes(spans []span) []selfTime {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range spans {
		covered := unionLen(spans, children[i], s.start, s.end)
		a := agg[s.name]
		if a == nil {
			a = &selfTime{Name: s.name}
			agg[s.name] = a
		}
		a.Count++
		a.TotalNS += s.end - s.start
		a.SelfNS += s.end - s.start - covered
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// unionLen is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func unionLen(spans []span, idx []int32, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].start, spans[i].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for n, v := range iv {
		if n == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// writeTrace writes the spans, one JSON array per line
// ([id, parent, name, session, start_ns, end_ns]), gzipped, and a summary
// document with the self times, the server's metrics over the timed
// phase, and the per-layer metrics.
func writeTrace(dir, stem string, spans []span, summary map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	spansPath := filepath.Join(dir, stem+".spans.jsonl.gz")
	f, err := os.Create(spansPath)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	bw := bufio.NewWriter(zw)
	for i, s := range spans {
		name, _ := json.Marshal(s.name) // a string always marshals
		fmt.Fprintf(bw, "[%d,%d,%s,%d,%d,%d]\n", i, s.parent, name, s.sess, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	summary["spans_file"] = spansPath
	summary["self_time"] = selfTimes(spans)
	doc, err := json.MarshalIndent(summary, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, stem+".json")
	return path, os.WriteFile(path, doc, 0o644)
}

// metricsDelta subtracts an earlier scrape from a later one: counters
// and histogram buckets by name, so a histogram describes only the
// observations made between the two scrapes.
func metricsDelta(a, b *wire.MetricsPayload) *wire.MetricsPayload {
	out := &wire.MetricsPayload{Source: b.Source, Gauges: b.Gauges}
	before := map[string]int64{}
	for _, c := range a.Counters {
		before[c.Name] = c.Value
	}
	for _, c := range b.Counters {
		out.Counters = append(out.Counters, wire.MetricVal{Name: c.Name, Value: c.Value - before[c.Name]})
	}
	hists := map[string]wire.MetricHist{}
	for _, h := range a.Hists {
		hists[h.Name] = h
	}
	for _, h := range b.Hists {
		prev := hists[h.Name]
		n := map[uint32]uint64{}
		for _, bk := range prev.Buckets {
			n[bk.Idx] = bk.N
		}
		d := wire.MetricHist{Name: h.Name, Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum}
		for _, bk := range h.Buckets {
			if v := bk.N - n[bk.Idx]; v > 0 {
				d.Buckets = append(d.Buckets, wire.MetricBucket{Idx: bk.Idx, N: v})
			}
		}
		out.Hists = append(out.Hists, d)
	}
	return out
}
