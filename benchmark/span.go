package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"

	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// rawCalls is how many root spans (with their children) are kept
// verbatim; later spans only feed the per-name duration histograms, so
// a traced run of any length holds a bounded trace in memory.
const rawCalls = 2000

// span is one timed interval recorded by the benchmark around a call
// it makes itself. Times are nanoseconds since the recorder's epoch;
// Parent is the ID of the span that was open when this one began (-1
// for a root), and spans of one pass share Pass.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Pass   int32  `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's in-memory span recorder. It is driven by
// the single measuring goroutine, so open spans form a stack and a
// span's parent is whatever is on top of it. A nil recorder records
// nothing, which is how the untraced runs share the traced code.
type recorder struct {
	epoch time.Time
	pass  int32
	roots int
	raw   []span
	open  []openSpan
	hist  map[string]*telemetry.HistSnapshot
}

type openSpan struct {
	name  string
	start int64
	raw   int32 // index into raw, -1 once past the raw window
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), hist: make(map[string]*telemetry.HistSnapshot)}
}

// begin opens a span under the currently open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	if len(r.open) == 0 {
		r.roots++
	}
	o := openSpan{name: name, raw: -1}
	if r.roots <= rawCalls {
		parent := int32(-1)
		if n := len(r.open); n > 0 {
			parent = r.open[n-1].raw
		}
		o.raw = int32(len(r.raw))
		r.raw = append(r.raw, span{Name: name, ID: o.raw, Parent: parent, Pass: r.pass})
	}
	r.open = append(r.open, o)
	// The clock is read last so the recorder's own bookkeeping falls
	// outside the span it opens.
	r.open[len(r.open)-1].start = int64(time.Since(r.epoch))
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	o := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	if o.raw >= 0 {
		r.raw[o.raw].Start, r.raw[o.raw].End = o.start, now
		return
	}
	h := r.hist[o.name]
	if h == nil {
		h = telemetry.NewHistSnapshot()
		r.hist[o.name] = h
	}
	h.Observe(uint64(now - o.start))
}

// nextPass starts a new pass identifier for the spans that follow.
func (r *recorder) nextPass() {
	if r != nil {
		r.pass++
	}
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other (workers running side by side) or stick out of the parent;
// the covered part is the union of their intervals clipped to the
// parent's.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b span) int { return int(a.Start - b.Start) })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanSummary is the per-name digest written next to the raw spans.
type spanSummary struct {
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	SelfNs float64 `json:"mean_self_ns"`
}

// summary folds raw spans and histograms into one digest per name.
// Self time comes from the raw window only: past it, parents and
// children are no longer linked.
func (r *recorder) summary() map[string]spanSummary {
	hists := make(map[string]*telemetry.HistSnapshot)
	for name, h := range r.hist {
		c := telemetry.NewHistSnapshot()
		c.Merge(h)
		hists[name] = c
	}
	selfSum, selfN := map[string]int64{}, map[string]int64{}
	self := selfTimes(r.raw)
	for _, s := range r.raw {
		h := hists[s.Name]
		if h == nil {
			h = telemetry.NewHistSnapshot()
			hists[s.Name] = h
		}
		h.Observe(uint64(s.End - s.Start))
		selfSum[s.Name] += self[s.ID]
		selfN[s.Name]++
	}
	out := make(map[string]spanSummary, len(hists))
	for name, h := range hists {
		sum := spanSummary{Count: h.Count(), P50Ns: h.Quantile(0.5), P99Ns: h.Quantile(0.99)}
		if n := selfN[name]; n > 0 {
			sum.SelfNs = float64(selfSum[name]) / float64(n)
		}
		out[name] = sum
	}
	return out
}

// meanSelf is the mean self time of the raw spans called name, in ns.
func (r *recorder) meanSelf(name string) float64 {
	return r.summary()[name].SelfNs
}

// flush writes the raw spans and the digest to path.
func (r *recorder) flush(path string) error {
	doc := struct {
		Spans   []span                 `json:"spans"`
		Summary map[string]spanSummary `json:"summary"`
	}{r.raw, r.summary()}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
