package speedybox_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
)

// TestTelemetryEndToEnd runs a chain with a telemetry hub attached,
// scrapes the live HTTP endpoint the way an operator would, and checks
// that what /metrics and /statusz report agrees with Engine.Stats().
func TestTelemetryEndToEnd(t *testing.T) {
	fw, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name: "fw", Rules: speedybox.PadIPFilterRules(nil, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		t.Fatal(err)
	}

	hub := speedybox.NewTelemetry()
	opts := speedybox.DefaultOptions()
	opts.Telemetry = hub
	p, err := speedybox.NewBESS([]speedybox.NF{fw, mon}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: 5, Flows: 60, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := speedybox.Run(p, tr.Packets())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FastPath == 0 || res.Stats.Consolidations == 0 {
		t.Fatalf("run produced no fast-path traffic: %+v", res.Stats)
	}

	srv, err := speedybox.NewTelemetryServer("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	// --- /metrics: Prometheus text exposition ---
	metrics := scrapeMetrics(t, srv.URL()+"/metrics")
	for name, want := range map[string]uint64{
		"speedybox_engine_packets_total":                       res.Stats.Packets,
		`speedybox_engine_path_packets_total{path="fast"}`:     res.Stats.FastPath,
		`speedybox_engine_path_packets_total{path="slow"}`:     res.Stats.SlowPath,
		"speedybox_engine_dropped_total":                       res.Stats.Dropped,
		"speedybox_engine_consolidations_total":                res.Stats.Consolidations,
		"speedybox_mat_installs_total":                         res.Stats.Consolidations,
		`speedybox_engine_path_work_cycles_count{path="fast"}`: res.Stats.FastPath,
	} {
		got, ok := metrics[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s = %g, want %d (Engine.Stats agreement)", name, got, want)
		}
	}
	// The flow table's slot arrays report beside its occupancy: the 60
	// flows published at least one array, and tombstones are a gauge.
	if got := metrics["speedybox_flow_table_rebuilds_total"]; got == 0 {
		t.Errorf("speedybox_flow_table_rebuilds_total = %g after %d flows", got, 60)
	}
	if _, ok := metrics["speedybox_flow_dead_slots"]; !ok {
		t.Error("/metrics missing speedybox_flow_dead_slots")
	}
	// Rule, recording and events are words of the flow entries: every
	// flow that still holds a rule holds the recording it came from, no
	// entry is detached, and the Global MAT's own array gauges and the
	// rule-cache counters went with the table and the cache they watched.
	if rec, rules := metrics["speedybox_flow_records"], metrics["speedybox_mat_global_rules"]; rec != rules {
		t.Errorf("speedybox_flow_records = %g, speedybox_mat_global_rules = %g: want a recording per rule", rec, rules)
	}
	if got, ok := metrics["speedybox_flow_detached_entries"]; !ok || got != 0 {
		t.Errorf("speedybox_flow_detached_entries = %g (present=%v), want 0", got, ok)
	}
	for _, gone := range []string{"speedybox_mat_table_rebuilds_total", "speedybox_mat_dead_slots",
		"speedybox_rule_cache_hits_total", "speedybox_rule_cache_misses_total"} {
		if _, ok := metrics[gone]; ok {
			t.Errorf("/metrics still exports %s", gone)
		}
	}
	// Per-NF slow-path stage histograms exist and saw the initial packets.
	if got := metrics[`speedybox_nf_stage_cycles_count{nf="fw"}`]; got == 0 {
		t.Errorf("per-NF stage histogram for fw is empty")
	}

	// --- /statusz: JSON snapshot with the flight-recorder tail ---
	var st speedybox.TelemetryStatus
	if err := json.Unmarshal(get(t, srv.URL()+"/statusz"), &st); err != nil {
		t.Fatalf("/statusz is not JSON: %v", err)
	}
	if st.Metrics.Counters["speedybox_engine_packets_total"] != res.Stats.Packets {
		t.Errorf("statusz packets = %d, want %d",
			st.Metrics.Counters["speedybox_engine_packets_total"], res.Stats.Packets)
	}
	fastHist := st.Metrics.Histograms[`speedybox_engine_path_work_cycles{path="fast"}`]
	if fastHist.Count != res.Stats.FastPath {
		t.Errorf("statusz fast-path histogram count = %d, want %d", fastHist.Count, res.Stats.FastPath)
	}
	if fastHist.P50 <= 0 || fastHist.P999 < fastHist.P50 {
		t.Errorf("fast-path percentiles look wrong: %+v", fastHist)
	}
	if len(st.FlightRecorder) == 0 {
		t.Error("flight recorder tail is empty after a run with installs and teardowns")
	}
	if st.FlightRecorderTotal < uint64(len(st.FlightRecorder)) {
		t.Errorf("flight recorder total %d < tail length %d", st.FlightRecorderTotal, len(st.FlightRecorder))
	}
	sawInstall := false
	for _, rec := range st.FlightRecorder {
		if rec.Kind == "rule-install" {
			sawInstall = true
			break
		}
	}
	if !sawInstall && st.FlightRecorderTotal <= uint64(len(st.FlightRecorder)) {
		t.Error("no rule-install transition in the flight-recorder tail")
	}
}

// TestFastPathAllocBudget pins the acceptance bound: a fast-path
// packet through a 3-NF chain with telemetry enabled stays within 7
// allocations. Telemetry itself must add none — recording is an atomic
// add into a pre-resolved histogram shard.
func TestFastPathAllocBudget(t *testing.T) {
	fw, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name: "fw", Rules: speedybox.PadIPFilterRules(nil, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := speedybox.NewSnort("ids", speedybox.DefaultSnortRules())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		t.Fatal(err)
	}
	opts := speedybox.DefaultOptions()
	opts.Telemetry = speedybox.NewTelemetry()
	p, err := speedybox.NewBESS([]speedybox.NF{fw, ids, mon}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{20, 0, 0, 1},
		SrcPort: 7777, DstPort: 80, Proto: 17, // UDP: no handshake
		Payload: []byte("alloc budget payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// First packet records and consolidates; the chain is forward-only,
	// so the packet is unmodified and can be replayed fast-path.
	if _, err := p.Process(pkt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Process(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("fast-path packet with telemetry = %.1f allocs, budget is 7", allocs)
	}
	if st := p.Engine().Stats(); st.FastPath == 0 {
		t.Fatalf("replayed packets did not take the fast path: %+v", st)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scrapeMetrics parses Prometheus text exposition into sample-name →
// value (full names including label blocks).
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(string(get(t, url)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}
