package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestClusterScaleUnderTraffic is the daemon-level acceptance check for
// live scaling: a fleet of 2 serves pump traffic, POST /v1/cluster/scale
// grows it to 4 and shrinks it to 3 while packets flow, and the
// /v1/status deltas show zero drops across every rebalance plus a
// fast-path hit rate that recovers after the migrations, and the
// multi-queue workers driving the fleet report the packets they drained.
func TestClusterScaleUnderTraffic(t *testing.T) {
	d := testDaemon(t, Config{
		Instances: 2,
		Pump:      PumpConfig{Flows: 120, Gap: time.Millisecond},
	})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}

	s1 := waitWindows(t, d, 4)
	if s1.Cluster == nil {
		t.Fatal("status has no cluster section in cluster mode")
	}
	if got := len(s1.Cluster.Instances); got != 2 {
		t.Fatalf("status reports %d instances, want 2", got)
	}
	if s1.Platform != "bess[2]" {
		t.Fatalf("platform = %q, want bess[2]", s1.Platform)
	}
	s2 := waitWindows(t, d, s1.Pump.Windows+3)
	base := hitRate(s1, s2)
	if base == 0 {
		t.Fatalf("no fast-path traffic in baseline: %+v", s2.Stats)
	}

	scale := func(n int) clusterScaleResponse {
		t.Helper()
		body, _ := json.Marshal(clusterScaleRequest{Instances: n})
		var resp clusterScaleResponse
		if code := apiJSON(t, http.MethodPost, d.URL()+"/v1/cluster/scale", body, &resp); code != http.StatusOK {
			t.Fatalf("scale to %d: HTTP %d", n, code)
		}
		if got := len(resp.Instances); got != n {
			t.Fatalf("scale to %d left %d instances", n, got)
		}
		return resp
	}

	out := scale(4)
	if out.Rebalances < 2 {
		t.Fatalf("scale 2->4 performed %d rebalances, want >= 2", out.Rebalances)
	}
	s3 := waitWindows(t, d, s2.Pump.Windows+2)
	scale(3)
	s4 := waitWindows(t, d, s3.Pump.Windows+4)

	// Zero drops across every rebalance, by status deltas.
	if s4.Pump.Drops != s1.Pump.Drops || s4.Stats.Dropped != s1.Stats.Dropped {
		t.Fatalf("drops during scaling: pump %d->%d engine %d->%d",
			s1.Pump.Drops, s4.Pump.Drops, s1.Stats.Dropped, s4.Stats.Dropped)
	}
	// Fleet-wide counters stayed monotonic across the scale-in.
	if s4.Stats.Packets < s3.Stats.Packets {
		t.Fatalf("aggregate packets went backwards across scale-in: %d -> %d",
			s3.Stats.Packets, s4.Stats.Packets)
	}
	// Hit rate recovers once the migrated flows' rules re-record.
	s5 := waitWindows(t, d, s4.Pump.Windows+3)
	if rec := hitRate(s4, s5); rec < 0.9*base {
		t.Fatalf("hit rate recovered to %.3f, want >= 90%% of baseline %.3f", rec, base)
	}
	if s5.Cluster.SuggestedInstances < 1 {
		t.Fatalf("autoscale suggestion %d", s5.Cluster.SuggestedInstances)
	}
	var drained uint64
	for _, w := range s5.Workers {
		drained += w.Packets
	}
	if len(s5.Workers) != 4 || drained == 0 {
		t.Fatalf("workers %+v: want 4 workers that drained packets", s5.Workers)
	}
}

// TestClusterPlanAppliesFleetWide submits a live reconfiguration to a
// clustered daemon and verifies every instance lands on the same chain
// and epoch.
func TestClusterPlanAppliesFleetWide(t *testing.T) {
	d := testDaemon(t, Config{
		Instances: 3,
		Pump:      PumpConfig{Flows: 60, Gap: time.Millisecond},
	})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	waitWindows(t, d, 2)

	var pr planResponse
	plan := []byte(`{"op":"insert","pos":2,"nf":{"type":"monitor","name":"mon-b"}}`)
	if code := apiJSON(t, http.MethodPost, d.URL()+"/v1/plan", plan, &pr); code != http.StatusOK {
		t.Fatalf("plan: HTTP %d", code)
	}
	if pr.Epoch == 0 {
		t.Fatalf("plan did not bump the epoch: %+v", pr)
	}
	cl := d.Cluster()
	for i := 0; i < cl.Len(); i++ {
		eng := cl.Engine(i)
		if got, want := eng.Epoch(), pr.Epoch; got != want {
			t.Errorf("instance %d epoch %d, want %d", i, got, want)
		}
		if got, want := len(eng.ChainNames()), len(pr.Chain); got != want {
			t.Errorf("instance %d chain %v, want %v", i, eng.ChainNames(), pr.Chain)
		}
	}
}

// TestClusterEndpointErrors pins the machine-readable codes of the
// cluster API's failure modes.
func TestClusterEndpointErrors(t *testing.T) {
	single := testDaemon(t, Config{Pump: PumpConfig{Disable: true}})
	body, _ := json.Marshal(clusterScaleRequest{Instances: 2})
	if code, status := apiErrCode(t, http.MethodPost, single.URL()+"/v1/cluster/scale", body); code != "server.not_clustered" || status != http.StatusConflict {
		t.Fatalf("scale on single daemon: code=%s status=%d", code, status)
	}

	d := testDaemon(t, Config{Instances: 2, Pump: PumpConfig{Disable: true}})
	if code, _ := apiErrCode(t, http.MethodPost, d.URL()+"/v1/cluster/scale", nil); code != "server.bad_request" {
		t.Fatalf("scale without a target: code=%s", code)
	}
	body, _ = json.Marshal(clusterScaleRequest{Instances: 100000})
	if code, status := apiErrCode(t, http.MethodPost, d.URL()+"/v1/cluster/scale", body); code != "cluster.scale_invalid" || status != http.StatusBadRequest {
		t.Fatalf("oversized scale: code=%s status=%d", code, status)
	}
	if code, status := apiErrCode(t, http.MethodPost, d.URL()+"/v1/checkpoint", nil); code != "server.cluster_mode" || status != http.StatusConflict {
		t.Fatalf("checkpoint in cluster mode: code=%s status=%d", code, status)
	}
	if code, _ := apiErrCode(t, http.MethodPost, d.URL()+"/v1/restore", []byte(`{"checkpoint":"AA=="}`)); code != "server.cluster_mode" {
		t.Fatalf("restore in cluster mode: code=%s", code)
	}
	if code, _ := apiErrCode(t, http.MethodGet, d.URL()+"/v1/cluster/scale", nil); code != "server.method_not_allowed" {
		t.Fatalf("GET scale: code=%s", code)
	}
}

// TestClusterConfigRejected pins New's cluster-mode validation: onvm
// platforms and single-instance durability options are refused.
func TestClusterConfigRejected(t *testing.T) {
	if _, err := New(Config{
		Instances: 2,
		SpecJSON:  []byte(`{"name":"c","platform":"onvm","nfs":[{"type":"monitor","name":"m"}]}`),
		Pump:      PumpConfig{Disable: true},
	}); err == nil {
		t.Fatal("cluster over onvm accepted")
	}
	if _, err := New(Config{
		Instances:      2,
		CheckpointPath: "/tmp/nope.ckpt",
		Pump:           PumpConfig{Disable: true},
	}); err == nil {
		t.Fatal("cluster with CheckpointPath accepted")
	}
}
