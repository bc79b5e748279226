package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func TestPercentile(t *testing.T) {
	distinct := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 30}, {0.99, 50}, {0, 10}, {0.2, 10}, {0.21, 20}, {1, 50}} {
		if got := percentile(distinct, c.q); got != c.want {
			t.Errorf("percentile(distinct, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float32{}, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}

	// 1, then four samples tied at 5, then 9: the tie block spans
	// [3, 7]; ranks 1..4 sit at its eighths 1, 3, 5 and 7.
	tied := []float64{5, 1, 5, 9, 5, 5}
	for q, want := range map[float64]float64{0.5: 3 + 4*3.0/8, 0.34: 3 + 4*3.0/8, 0.8: 3 + 4*7.0/8} {
		if got := percentile(tied, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(tied, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile([]float64{7, 7, 7}, 0.5); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	// More of the block below the rank moves the estimate up: the
	// estimator is monotone in q inside a tie.
	if lo, hi := percentile(tied, 0.3), percentile(tied, 0.8); lo >= hi {
		t.Errorf("tie interpolation not monotone: p30 %v, p80 %v", lo, hi)
	}
}

func TestMedianAndBestSlice(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Five slices, one disturbed: each metric is its best slice's.
	var ss []slice
	for _, ns := range []float32{100, 101, 99, 100, 900} {
		ss = append(ss, slice{
			pktNs: []float32{ns - 1, ns, ns + 1}, callNs: []float32{32 * ns},
			packets: 96, timed: time.Duration(96 * ns),
		})
	}
	tm := fold(ss)
	if tm.pktNsP50 != 99 || tm.callNsP99 != 32*99 {
		t.Errorf("pkt_ns_p50 = %v, call_ns_p99 = %v, want 99 and %v", tm.pktNsP50, tm.callNsP99, 32*99)
	}
	if want := 1e3 / 99.0; math.Abs(tm.mpps-want) > 1e-9 {
		t.Errorf("mpps = %v, want %v", tm.mpps, want)
	}
	if tm.packets != 5*96 || tm.samples != 15 {
		t.Errorf("packets %d samples %d", tm.packets, tm.samples)
	}
	// Three passes of three calls: 32, 32 and 16 packets. Each pass is
	// disturbed somewhere else; the quiet pass is 100+200+80 ns.
	qs := []slice{{callNs: []float32{100, 950, 80, 400, 200, 80}, packets: 160}, {callNs: []float32{101, 201, 300}, packets: 80}}
	q := quietPass(qs, 80, 32)
	if want := 80 / 380.0 * 1e3; math.Abs(q.mpps-want) > 1e-9 || q.pktNsP50 != 80.0/16 {
		t.Errorf("quiet pass: mpps %v, want %v; pkt_ns_p50 %v, want %v", q.mpps, want, q.pktNsP50, 80.0/16)
	}
	if q.slices != 3 || q.samples != 9 || q.packets != 240 {
		t.Errorf("quiet pass: passes %d samples %d packets %d", q.slices, q.samples, q.packets)
	}
	if got := skew([]int{30, 10}); got != 1.5 {
		t.Errorf("skew = %v, want 1.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		// Nested: the grandchild is the child's business, not the root's.
		{Name: "child", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "grandchild", ID: 2, Parent: 1, Start: 15, End: 25},
		// Overlapping siblings cover [50, 80) once.
		{Name: "worker", ID: 3, Parent: 0, Start: 50, End: 70},
		{Name: "worker", ID: 4, Parent: 0, Start: 60, End: 80},
		// A child sticking out of its parent only covers the inside.
		{Name: "late", ID: 5, Parent: 0, Start: 95, End: 130},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{0: 100 - 30 - 30 - 5, 1: 30 - 10, 2: 10, 3: 20, 4: 20, 5: 35} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var nilRec *recorder
	nilRec.begin("x") // a nil recorder is the untraced run
	nilRec.end()
	nilRec.nextPass()

	r := newRecorder()
	for call := 0; call < rawCalls+5; call++ {
		r.nextPass()
		r.begin("call")
		r.begin("inner")
		r.end()
		r.end()
	}
	if len(r.raw) != 2*rawCalls {
		t.Fatalf("raw spans = %d, want %d", len(r.raw), 2*rawCalls)
	}
	if first, inner := r.raw[0], r.raw[1]; first.Parent != -1 || inner.Parent != first.ID || inner.Pass != 1 ||
		inner.Start < first.Start || inner.End > first.End {
		t.Errorf("span linkage wrong: %+v %+v", first, inner)
	}
	sum := r.summary()
	if sum["call"].Count != rawCalls+5 || sum["inner"].Count != rawCalls+5 {
		t.Errorf("summary counts = %d/%d, want %d", sum["call"].Count, sum["inner"].Count, rawCalls+5)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.flush(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans   []span
		Summary map[string]spanSummary
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 2*rawCalls || len(doc.Summary) != 2 {
		t.Errorf("flushed trace: err %v, %d spans, %d names", err, len(doc.Spans), len(doc.Summary))
	}
}

// shrunk is the workload at 1/64 of its flows, so that tests set it up
// in milliseconds.
func shrunk(t *testing.T, name string) *workload {
	t.Helper()
	found, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w := *found
	w.pass.Flows = max(4, w.pass.Flows/64)
	if w.resident != nil {
		r := *w.resident
		r.Flows /= 64
		w.resident = &r
	}
	return &w
}

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	for i := range workloads {
		w := shrunk(t, workloads[i].name)
		primeA, passA, err := w.frames(7)
		if err != nil {
			t.Fatal(err)
		}
		primeB, passB, _ := w.frames(7)
		_, passC, _ := w.frames(8)
		same := func(x, y [][]byte) bool { return slices.EqualFunc(x, y, bytes.Equal) }
		if !same(primeA, primeB) || !same(passA, passB) {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		if same(passA, passC) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		if (primeA != nil) != (w.resident != nil) || len(passA) == 0 {
			t.Errorf("%s: prime %d frames, pass %d frames", w.name, len(primeA), len(passA))
		}
	}
}

// TestSmoke runs every workload, timed and traced, for 200 ms and
// checks that each declared metric comes out exactly once and finite,
// with no failed operation.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := shrunk(t, workloads[i].name)
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 1, 200*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			decl := endToEnd
			if traced {
				decl = perLayer
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s traced=%v: %d metrics, %d declared", w.name, traced, len(res.Metrics), len(decl))
			}
			for _, m := range decl {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, m.Name, v, ok)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestTamperedRuleFails is the output check's teeth: a consolidated
// rule that drops, or rewrites a field the chain leaves alone, must
// show up as failed packets.
func TestTamperedRuleFails(t *testing.T) {
	for name, tamper := range map[string]func(*mat.GlobalRule){
		"verdict": func(r *mat.GlobalRule) { r.Drop = true },
		"bytes": func(r *mat.GlobalRule) {
			r.Modifies = append(slices.Clone(r.Modifies), mat.FieldValue{Field: packet.FieldDSCP, Value: []byte{0x2e}})
		},
	} {
		w := shrunk(t, "chain1")
		_, pass, err := w.frames(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newChecker(w)
		if err != nil {
			t.Fatal(err)
		}
		c.run(pass)
		c.run(pass)
		if c.tally.failed != 0 || c.tally.ops != 2*len(pass) {
			t.Fatalf("%s: untampered check failed %d of %d", name, c.tally.failed, c.tally.ops)
		}
		g := c.sbox.p.Engine().Global()
		var victim *mat.GlobalRule
		g.ForEach(func(r *mat.GlobalRule) {
			if victim == nil {
				victim = r
			}
		})
		broken := *victim
		tamper(&broken)
		broken.Compile()
		g.Install(&broken)
		c.run(pass)
		if c.tally.failed == 0 {
			t.Errorf("%s: tampered rule went unnoticed", name)
		}
		c.close()
	}
}

func TestVerdict(t *testing.T) {
	lat := metric{Name: "pkt_ns_p50", Better: lower, Bound: 0.10}
	rate := metric{Name: "mpps", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		m    metric
		a, b float64
		want string
	}{
		{lat, 100, 109, "ok"}, {lat, 100, 111, "worse"}, {lat, 100, 89, "better"},
		{rate, 10, 9.1, "ok"}, {rate, 10, 8.9, "worse"}, {rate, 10, 11.1, "better"},
	} {
		if _, got := c.m.verdict(c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}

	set := func(ns float64, failed int) *resultSet {
		s := &resultSet{}
		for i := range workloads {
			r := result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = value{Value: ns, Unit: m.Unit}
			}
			s.Runs = append(s.Runs, run{Workload: workloads[i].name, Result: r})
		}
		return s
	}
	if err := compareSets(set(100, 0), set(100, 0)); err != nil {
		t.Errorf("equal sets: %v", err)
	}
	if err := compareSets(set(100, 0), set(100, 1)); err == nil {
		t.Error("a failed operation passed the comparison")
	}
	// A slower ungated workload is reported, not held to the bound; a
	// slower gated one fails.
	slow := func(name string) *resultSet {
		s := set(100, 0)
		for i := range s.Runs {
			if s.Runs[i].Workload == name {
				s.Runs[i].Result.Metrics["pkt_ns_p50"] = value{Value: 200, Unit: "ns"}
			}
		}
		return s
	}
	if err := compareSets(set(100, 0), slow("runner")); err != nil {
		t.Errorf("ungated workload held to its bound: %v", err)
	}
	if err := compareSets(set(100, 0), slow("wide")); err == nil {
		t.Error("a gated workload twice as slow passed the comparison")
	}
}

// TestManifest holds BENCHMARK.json to what the program declares.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v, the program's default %v", manifest.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's:\n%+v\n%+v", manifest.EndToEnd, endToEnd)
	}
	if !slices.Equal(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's")
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(manifest.Workloads) != len(gated) {
		t.Fatalf("%d workloads in the manifest, %d gated in the program", len(manifest.Workloads), len(gated))
	}
	for i, w := range manifest.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d: manifest has %q, program %q", i, w.Name, gated[i].name)
		}
	}
}
