package onvm

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// TestClosedPlatformRefusesWork: after Close, a BESS and an ONVM
// platform alike refuse Process, ProcessBatch and Reconfigure with
// platform.ErrClosed, and a second Close is a no-op.
func TestClosedPlatformRefusesWork(t *testing.T) {
	models := []struct {
		name  string
		build func(Config) (*platform.Platform, error)
	}{
		{"bess", func(c Config) (*platform.Platform, error) { return bess.New(bess.Config(c)) }},
		{"onvm", New},
	}
	calls := []struct {
		name string
		call func(*testing.T, *platform.Platform) error
	}{
		{"Process", func(t *testing.T, p *platform.Platform) error {
			_, err := p.Process(udpPkt(t, 9001))
			return err
		}},
		{"ProcessBatch", func(t *testing.T, p *platform.Platform) error {
			_, err := p.ProcessBatch([]*packet.Packet{udpPkt(t, 9001)}, platform.NewBatch(1))
			return err
		}},
		{"Reconfigure", func(_ *testing.T, p *platform.Platform) error {
			return p.Reconfigure(core.ChainPlan{Op: core.OpRemove, Name: "fw1"})
		}},
	}
	for _, m := range models {
		for _, c := range calls {
			t.Run(m.name+"/"+c.name, func(t *testing.T) {
				p, err := m.build(Config{Chain: filterChain(t, 2), Options: core.DefaultOptions()})
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
				if err := c.call(t, p); !errors.Is(err, platform.ErrClosed) {
					t.Errorf("%s after Close: err = %v, want platform.ErrClosed", c.name, err)
				}
			})
		}
	}
}

// TestShrinkThenGrowUnderTraffic removes an NF from a chain carrying
// traffic and inserts one back: every packet before, between and after
// is processed, and the telemetry registry still scrapes.
func TestShrinkThenGrowUnderTraffic(t *testing.T) {
	hub := telemetry.NewHub()
	opts := core.DefaultOptions()
	opts.Telemetry = hub
	p, err := New(Config{Chain: filterChain(t, 3), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	traffic := func(when string) {
		t.Helper()
		tr := smallTrace(t)
		res, err := platform.RunBatch(p, tr.Packets(), 32, nil)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if res.Packets != tr.Len() {
			t.Fatalf("%s: processed %d of %d", when, res.Packets, tr.Len())
		}
	}
	traffic("before the shrink")
	if err := p.Reconfigure(core.ChainPlan{Op: core.OpRemove, Name: "fw2"}); err != nil {
		t.Fatal(err)
	}
	traffic("after the shrink")
	var buf bytes.Buffer
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape after shrink: %v", err)
	}
	nf, err := ipfilter.New(ipfilter.Config{Name: "fw2b", Rules: ipfilter.PadRules(nil, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 2, NF: nf}); err != nil {
		t.Fatal(err)
	}
	traffic("after the regrow")
	buf.Reset()
	if err := hub.Registry.WritePrometheus(&buf); err != nil {
		t.Fatalf("scrape after regrow: %v", err)
	}
	if got := p.Engine().ChainNames(); !reflect.DeepEqual(got, []string{"fw0", "fw1", "fw2b"}) || p.Engine().Epoch() != 2 {
		t.Errorf("chain %v at epoch %d, want [fw0 fw1 fw2b] at 2", got, p.Engine().Epoch())
	}
}

// TestInsertPastCoreBudget: an insert into a chain already at the core
// budget (5 NFs on the paper's 14 cores) is refused with
// ErrChainTooLong before the engine commits anything — the epoch and
// the chain stay as they were — while a same-length replace goes
// through.
func TestInsertPastCoreBudget(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 5), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	eng := p.Engine()
	names, epoch := eng.ChainNames(), eng.Epoch()
	nf, err := ipfilter.New(ipfilter.Config{Name: "fw5", Rules: ipfilter.PadRules(nil, 10)})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 5, NF: nf})
	if !errors.Is(err, ErrChainTooLong) {
		t.Fatalf("insert into a 5-NF chain: err = %v, want ErrChainTooLong", err)
	}
	if got := eng.ChainNames(); !reflect.DeepEqual(got, names) || eng.Epoch() != epoch {
		t.Errorf("after the refused insert: chain %v at epoch %d, want %v at %d", got, eng.Epoch(), names, epoch)
	}
	if err := p.Reconfigure(core.ChainPlan{Op: core.OpReplace, Name: "fw4", NF: nf}); err != nil {
		t.Fatalf("replace at the budget: %v", err)
	}
}

// TestReconfigureCheckpointConcurrent drives Reconfigure and
// Engine.Checkpoint from separate goroutines: both serialize on the
// engine's reconfiguration lock, so every checkpoint must observe a
// whole chain generation (and the race detector must stay quiet).
func TestReconfigureCheckpointConcurrent(t *testing.T) {
	p, err := New(Config{Chain: filterChain(t, 3), Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr := smallTrace(t)
	if _, err := platform.Run(p, tr.Packets()); err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := p.Reconfigure(core.ChainPlan{Op: core.OpRemove, Name: "fw2"}); err != nil {
				t.Errorf("remove: %v", err)
				return
			}
			nf, err := ipfilter.New(ipfilter.Config{Name: "fw2", Rules: ipfilter.PadRules(nil, 100)})
			if err != nil {
				t.Error(err)
				return
			}
			if err := p.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 2, NF: nf}); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			cp, err := p.Engine().Checkpoint()
			if err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			if n := len(cp.NFState); n != 0 && n != 2 && n != 3 {
				t.Errorf("checkpoint saw %d NF states, want a whole generation", n)
			}
		}
	}()
	wg.Wait()
}
