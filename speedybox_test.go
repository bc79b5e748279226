package speedybox_test

import (
	"bytes"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
)

// chain1 builds the paper's motivating chain through the public API
// only: NAT -> Load Balancer -> Monitor -> Firewall (§II-A).
func chain1(t *testing.T) []speedybox.NF {
	t.Helper()
	nat, err := speedybox.NewMazuNAT(speedybox.MazuNATConfig{
		Name:           "nat",
		InternalPrefix: [4]byte{10, 0, 0, 0},
		InternalBits:   8,
		ExternalIP:     [4]byte{198, 51, 100, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := speedybox.NewMaglev(speedybox.MaglevConfig{
		Name: "lb",
		Backends: []speedybox.MaglevBackend{
			{Name: "a", IP: [4]byte{192, 168, 0, 1}, Port: 80},
			{Name: "b", IP: [4]byte{192, 168, 0, 2}, Port: 80},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		t.Fatal(err)
	}
	fw, err := speedybox.NewIPFilter(speedybox.IPFilterConfig{
		Name:  "fw",
		Rules: speedybox.PadIPFilterRules(nil, 50),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []speedybox.NF{nat, lb, mon, fw}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func([]speedybox.NF, speedybox.Options) (*speedybox.Platform, error)
	}{
		{"BESS", speedybox.NewBESS},
		{"ONVM", speedybox.NewONVM},
	} {
		t.Run(mk.name, func(t *testing.T) {
			p, err := mk.build(chain1(t), speedybox.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := p.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
			tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: 5, Flows: 25, Interleave: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := speedybox.Run(p, tr.Packets())
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != tr.Len() {
				t.Errorf("processed %d of %d", res.Packets, tr.Len())
			}
			if res.Stats.FastPath == 0 {
				t.Error("fast path never used")
			}
			if res.RateMpps() <= 0 {
				t.Error("no rate")
			}
		})
	}
}

func TestPublicAPIEquivalence(t *testing.T) {
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: 9, Flows: 20, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts speedybox.Options) []*speedybox.Packet {
		p, err := speedybox.NewBESS(chain1(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		pkts := tr.Packets()
		if _, err := speedybox.Run(p, pkts); err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	base := run(speedybox.BaselineOptions())
	sbox := run(speedybox.DefaultOptions())
	for i := range base {
		if base[i].Dropped() != sbox[i].Dropped() || !bytes.Equal(base[i].Data(), sbox[i].Data()) {
			t.Fatalf("packet %d differs between baseline and SpeedyBox", i)
		}
	}
}

func TestPublicAPISpeedup(t *testing.T) {
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{Seed: 2, Flows: 30, Interleave: true})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(opts speedybox.Options) float64 {
		p, err := speedybox.NewBESS(chain1(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		res, err := speedybox.Run(p, tr.Packets())
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatencyMicros()
	}
	base := mean(speedybox.BaselineOptions())
	sbox := mean(speedybox.DefaultOptions())
	if sbox >= base {
		t.Errorf("SpeedyBox latency %.3fµs not below baseline %.3fµs", sbox, base)
	}
}

func TestBuildPacket(t *testing.T) {
	p, err := speedybox.BuildPacket(speedybox.PacketSpec{
		SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
		SrcPort: 1, DstPort: 2, Payload: []byte("hi"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 || !p.VerifyChecksums() {
		t.Error("BuildPacket produced a bad frame")
	}
}

func TestDefaultModelExposed(t *testing.T) {
	m := speedybox.DefaultModel()
	if m.FreqHz != 2.0e9 {
		t.Errorf("FreqHz = %g", m.FreqHz)
	}
	// The model is a copy-by-pointer builder: two calls give
	// independent models so callers can tweak safely.
	m2 := speedybox.DefaultModel()
	m.Parse = 1
	if m2.Parse == 1 {
		t.Error("DefaultModel returns shared state")
	}
}

func TestDefaultSnortRulesCoverAllTypes(t *testing.T) {
	rules := speedybox.DefaultSnortRules()
	seen := map[speedybox.SnortRuleType]bool{}
	for _, r := range rules {
		seen[r.Type] = true
	}
	for _, want := range []speedybox.SnortRuleType{speedybox.SnortPass, speedybox.SnortAlert, speedybox.SnortLog} {
		if !seen[want] {
			t.Errorf("default rules missing type %v", want)
		}
	}
}
