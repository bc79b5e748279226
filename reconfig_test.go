package speedybox_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	speedybox "github.com/fastpathnfv/speedybox"
)

// hammerFilter builds a pass-all IPFilter with the given name, the
// cheapest NF to splice in and out of a live chain.
func hammerFilter(t *testing.T, name string) speedybox.NF {
	t.Helper()
	nf, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name:  name,
		Rules: speedybox.PadIPFilterRules(nil, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	return nf
}

// TestConcurrentReconfigure hammers live reconfiguration from every
// side at once: eight batched data-path workers stream disjoint flow
// populations through Chain 1 while a control-plane goroutine loops
// insert/remove of a pass-all filter under a 50% reconfig-abort fault
// rate (so the rollback path runs constantly), interleaved with
// deliberately invalid plans that must fail with their typed errors,
// and a scraper polls the live /metrics endpoint throughout. Run under
// -race this is the epoch machinery's memory-model test. The abort
// rollback has teeth here: the hammer tracks whether the filter is
// spliced in purely from Reconfigure's return values, so a rollback
// that left the chain half-changed would surface as an unexpected
// duplicate-NF or unknown-NF error on the next iteration.
func TestConcurrentReconfigure(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer")
	}
	hub := speedybox.NewTelemetry()
	opts := speedybox.DefaultOptions()
	opts.Telemetry = hub
	opts.Faults = speedybox.NewFaultInjector(speedybox.FaultConfig{
		Seed:  99,
		Rates: map[speedybox.FaultKind]float64{speedybox.FaultReconfigAbort: 0.5},
	})
	p, err := speedybox.NewBESS(chain1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	srv, err := speedybox.NewTelemetryServer("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const workers = 8
	var (
		workerWg  sync.WaitGroup
		controlWg sync.WaitGroup
		procErrs  atomic.Int64
		packets   atomic.Int64
		done      = make(chan struct{})
	)
	// The traces are generated, and the control goroutine is running,
	// before the first worker starts: the workers drain in tens of
	// milliseconds, and a hammer that starts late would find the data
	// path already idle.
	traces := make([][]*speedybox.Packet, workers)
	for w := range traces {
		// Disjoint source prefixes inside the NAT's 10/8: workers never
		// share a flow, so every shard of the data path stays busy.
		tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
			Seed: int64(1000 + w), Flows: 300, Interleave: true,
			SrcBase: [4]byte{10, byte(w + 1), 0, 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		traces[w] = tr.Packets()
	}

	// Control plane: splice the hammer filter in and out until the data
	// path drains, taking aborts in stride and probing invalid plans.
	var applied, aborted atomic.Int64
	hammering := make(chan struct{})
	controlWg.Add(1)
	go func() {
		defer controlWg.Done()
		close(hammering)
		inserted := false
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var plan speedybox.ChainPlan
			if inserted {
				plan = speedybox.ChainPlan{Op: speedybox.OpRemove, Name: "hammer"}
			} else {
				plan = speedybox.ChainPlan{
					Op: speedybox.OpInsert, Pos: p.Engine().ChainLen(),
					NF: hammerFilter(t, "hammer"),
				}
			}
			switch err := p.Reconfigure(plan); {
			case err == nil:
				inserted = !inserted
				applied.Add(1)
			case errors.Is(err, speedybox.ErrReconfigAborted):
				aborted.Add(1)
			default:
				t.Errorf("reconfigure: %v", err)
				return
			}
			// Invalid plans must be rejected with their typed errors and
			// must not consume an epoch or perturb the chain.
			before := p.Engine().Epoch()
			if err := p.Reconfigure(speedybox.ChainPlan{
				Op: speedybox.OpInsert, Pos: 99, NF: hammerFilter(t, fmt.Sprintf("oob%d", i)),
			}); !errors.Is(err, speedybox.ErrPlanOutOfRange) {
				t.Errorf("out-of-range insert: got %v, want ErrPlanOutOfRange", err)
			}
			if err := p.Reconfigure(speedybox.ChainPlan{
				Op: speedybox.OpRemove, Name: "no-such-nf",
			}); !errors.Is(err, speedybox.ErrPlanUnknownNF) {
				t.Errorf("unknown remove: got %v, want ErrPlanUnknownNF", err)
			}
			if err := p.Reconfigure(speedybox.ChainPlan{
				Op: speedybox.OpInsert, Pos: 0, NF: hammerFilter(t, "nat"),
			}); !errors.Is(err, speedybox.ErrPlanDuplicateNF) {
				t.Errorf("duplicate insert: got %v, want ErrPlanDuplicateNF", err)
			}
			if after := p.Engine().Epoch(); after != before {
				t.Errorf("invalid plans advanced the epoch: %d -> %d", before, after)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Scraper: the admin endpoint must stay coherent mid-reconfiguration.
	var lastScrape atomic.Pointer[string]
	controlWg.Add(1)
	go func() {
		defer controlWg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(srv.URL() + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Errorf("scrape read: %v", err)
				return
			}
			s := string(body)
			lastScrape.Store(&s)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	<-hammering
	for _, pkts := range traces {
		workerWg.Add(1)
		go func(pkts []*speedybox.Packet) {
			defer workerWg.Done()
			b := speedybox.NewBatch(32)
			for off := 0; off < len(pkts); off += 32 {
				end := off + 32
				if end > len(pkts) {
					end = len(pkts)
				}
				if _, err := p.ProcessBatch(pkts[off:end], b); err != nil {
					t.Errorf("worker batch at %d: %v", off, err)
					procErrs.Add(1)
					return
				}
				packets.Add(int64(end - off))
			}
		}(pkts)
	}

	// The data-path workers drain their traces; only then do the
	// control goroutines stand down.
	workerWg.Wait()
	close(done)
	controlWg.Wait()

	if procErrs.Load() != 0 {
		t.Fatalf("%d data-path errors under concurrent reconfiguration", procErrs.Load())
	}
	eng := p.Engine()
	if got, want := eng.Epoch(), uint64(applied.Load()); got != want {
		t.Errorf("epoch %d != %d applied reconfigurations", got, want)
	}
	if applied.Load() == 0 {
		t.Error("no reconfiguration ever applied; the hammer was vacuous")
	}
	if aborted.Load() == 0 {
		t.Error("no reconfiguration ever aborted; the rollback path never ran")
	}
	s := lastScrape.Load()
	if s == nil || !strings.Contains(*s, "speedybox_chain_epoch") {
		t.Error("final /metrics scrape missing speedybox_chain_epoch")
	}
	t.Logf("hammer: %d packets, %d applied, %d aborted, epoch %d",
		packets.Load(), applied.Load(), aborted.Load(), eng.Epoch())
}

// TestStaleEpochRuleCacheMiss pins the per-worker flow contexts' epoch
// behaviour: a warmed context must MISS after a reconfiguration (the
// generation bump makes cached pointers to retired-epoch rules
// unusable), the affected flows must re-record, and the very next
// batch must be fully fast again.
func TestStaleEpochRuleCacheMiss(t *testing.T) { staleEpochMiss(t, chain1(t)) }

// TestStaleEpochSummaryMiss is TestStaleEpochRuleCacheMiss on three
// forward-only filters, whose rules are plain: their packets are served
// from the summaries on the flow entries, and no summary of the retired
// epoch may serve one after the reconfiguration.
func TestStaleEpochSummaryMiss(t *testing.T) {
	staleEpochMiss(t, []speedybox.NF{hammerFilter(t, "fw1"), hammerFilter(t, "fw2"), hammerFilter(t, "fw3")})
}

func staleEpochMiss(t *testing.T, nfs []speedybox.NF) {
	p, err := speedybox.NewBESS(nfs, speedybox.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := p.Engine()

	const nflows = 32
	// One UDP packet per flow per batch: UDP skips the TCP handshake,
	// so packet 1 of a flow records+consolidates and packet 2 is fast.
	mkBatch := func(seq int) []*speedybox.Packet {
		out := make([]*speedybox.Packet, nflows)
		for f := 0; f < nflows; f++ {
			pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
				SrcIP: [4]byte{10, 7, 0, byte(f + 1)}, DstIP: [4]byte{93, 184, 0, 10},
				SrcPort: uint16(20000 + f), DstPort: 80, Proto: speedybox.ProtoUDP,
				Payload: []byte(fmt.Sprintf("pkt %d of flow %d", seq, f)),
			})
			if err != nil {
				t.Fatal(err)
			}
			out[f] = pkt
		}
		return out
	}
	b := speedybox.NewBatch(nflows)
	run := func(seq int) speedybox.Stats {
		if _, err := p.ProcessBatch(mkBatch(seq), b); err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
		return eng.Stats()
	}

	run(0) // records + consolidates every flow
	s1 := run(1)
	s2 := run(2)
	if got := s2.FastPath - s1.FastPath; got != nflows {
		t.Fatalf("warm batch hit fast path %d/%d times", got, nflows)
	}

	if err := p.Reconfigure(speedybox.ChainPlan{
		Op: speedybox.OpInsert, Pos: eng.ChainLen(), NF: hammerFilter(t, "late-filter"),
	}); err != nil {
		t.Fatal(err)
	}

	// Same warm flows, new epoch: the flow contexts and the Global MAT must
	// both refuse the retired rules — zero fast-path hits, full re-record.
	s3 := run(3)
	if got := s3.FastPath - s2.FastPath; got != 0 {
		t.Errorf("stale-epoch batch hit fast path %d times, want 0", got)
	}
	if got := s3.SlowPath - s2.SlowPath; got != nflows {
		t.Errorf("stale-epoch batch took slow path %d/%d times", got, nflows)
	}

	// And one batch later the re-consolidated rules serve again.
	s4 := run(4)
	if got := s4.FastPath - s3.FastPath; got != nflows {
		t.Errorf("post-recovery batch hit fast path %d/%d times", got, nflows)
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
