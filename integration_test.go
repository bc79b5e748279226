package speedybox_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	speedybox "github.com/fastpathnfv/speedybox"
)

// randomChain draws a random service chain from the NF pool. The VPN
// gateways are added as a matched encap/decap pair so every chain is
// functionally closed (decap without encap would reject traffic).
func randomChain(t *testing.T, rng *rand.Rand, maxLen int) []speedybox.NF {
	t.Helper()
	pool := []func(i int) (speedybox.NF, error){
		func(i int) (speedybox.NF, error) {
			return speedybox.NewMonitor(fmt.Sprintf("mon%d", i))
		},
		func(i int) (speedybox.NF, error) {
			return speedybox.NewIPFilter(speedybox.IPFilterConfig{
				Name:  fmt.Sprintf("fw%d", i),
				Rules: speedybox.PadIPFilterRules(nil, 20+rng.Intn(80)),
			})
		},
		func(i int) (speedybox.NF, error) {
			return speedybox.NewSnort(fmt.Sprintf("ids%d", i), speedybox.DefaultSnortRules())
		},
		func(i int) (speedybox.NF, error) {
			return speedybox.NewMaglev(speedybox.MaglevConfig{
				Name: fmt.Sprintf("lb%d", i),
				Backends: []speedybox.MaglevBackend{
					{Name: "a", IP: [4]byte{172, 16, 0, 1}, Port: 80},
					{Name: "b", IP: [4]byte{172, 16, 0, 2}, Port: 80},
				},
			})
		},
		func(i int) (speedybox.NF, error) {
			return speedybox.NewMazuNAT(speedybox.MazuNATConfig{
				Name:           fmt.Sprintf("nat%d", i),
				InternalPrefix: [4]byte{10, 0, 0, 0}, InternalBits: 8,
				ExternalIP: [4]byte{198, 51, 100, byte(1 + i)},
			})
		},
		func(i int) (speedybox.NF, error) {
			return speedybox.NewDoSDefender(speedybox.DoSDefenderConfig{
				Name: fmt.Sprintf("dos%d", i), SYNThreshold: 1000,
			})
		},
	}
	n := 1 + rng.Intn(maxLen)
	chain := make([]speedybox.NF, 0, n+2)
	for i := 0; i < n; i++ {
		nf, err := pool[rng.Intn(len(pool))](len(chain))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, nf)
	}
	if rng.Intn(3) == 0 && len(chain)+2 <= 5 {
		enc, err := speedybox.NewVPNGateway(speedybox.VPNConfig{
			Name: fmt.Sprintf("vpnE%d", len(chain)), Mode: speedybox.VPNEncap,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := speedybox.NewVPNGateway(speedybox.VPNConfig{
			Name: fmt.Sprintf("vpnD%d", len(chain)+1), Mode: speedybox.VPNDecap,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Encap first, decap last: the inner NFs see AH traffic.
		chain = append([]speedybox.NF{enc}, append(chain, dec)...)
	}
	return chain
}

type runOutput struct {
	drops []bool
	outs  [][]byte
}

func runThrough(t *testing.T, p *speedybox.Platform, pkts []*speedybox.Packet) runOutput {
	t.Helper()
	defer p.Close()
	out := runOutput{}
	for i, pkt := range pkts {
		if _, err := p.Process(pkt); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		out.drops = append(out.drops, pkt.Dropped())
		out.outs = append(out.outs, append([]byte(nil), pkt.Data()...))
	}
	return out
}

// TestRandomChainsCrossVariantEquivalence is the repository's
// strongest integration property: for random chains and random traces,
// the baseline chain, SpeedyBox-on-BESS, SpeedyBox-on-ONVM, and both
// ablation modes all produce byte-identical packet streams and drop
// decisions.
func TestRandomChainsCrossVariantEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration property test")
	}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
				Seed: int64(trial), Flows: 15 + rng.Intn(25),
				AlertFraction: 0.15, LogFraction: 0.15,
				UDPFraction: 0.3,
				Interleave:  true,
			})
			if err != nil {
				t.Fatal(err)
			}

			// Chain builders must create fresh NF instances per
			// variant; rebuild with the same sub-seed.
			chainSeed := rng.Int63()
			mkChain := func() []speedybox.NF {
				return randomChain(t, rand.New(rand.NewSource(chainSeed)), 3)
			}

			variants := []struct {
				name  string
				build func() (*speedybox.Platform, error)
			}{
				{"bess-baseline", func() (*speedybox.Platform, error) {
					return speedybox.NewBESS(mkChain(), speedybox.BaselineOptions())
				}},
				{"bess-sbox", func() (*speedybox.Platform, error) {
					return speedybox.NewBESS(mkChain(), speedybox.DefaultOptions())
				}},
				{"bess-ha-only", func() (*speedybox.Platform, error) {
					return speedybox.NewBESS(mkChain(), speedybox.Options{
						EnableSpeedyBox: true, ConsolidateHeaders: true, ParallelSF: false,
					})
				}},
				{"onvm-baseline", func() (*speedybox.Platform, error) {
					return speedybox.NewONVM(mkChain(), speedybox.BaselineOptions())
				}},
				{"onvm-sbox", func() (*speedybox.Platform, error) {
					return speedybox.NewONVM(mkChain(), speedybox.DefaultOptions())
				}},
			}
			var reference runOutput
			for vi, v := range variants {
				p, err := v.build()
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				got := runThrough(t, p, tr.Packets())
				if vi == 0 {
					reference = got
					continue
				}
				for i := range reference.drops {
					if reference.drops[i] != got.drops[i] {
						t.Fatalf("%s: packet %d drop decision differs from baseline", v.name, i)
					}
					if !bytes.Equal(reference.outs[i], got.outs[i]) {
						t.Fatalf("%s: packet %d bytes differ from baseline", v.name, i)
					}
				}
			}
		})
	}
}

// TestIdleExpiryUnderTraffic drives idle-rule GC through the public
// engine surface while traffic is flowing: sweep, traffic, sweep.
func TestIdleExpiryUnderTraffic(t *testing.T) {
	mon, err := speedybox.NewMonitor("mon")
	if err != nil {
		t.Fatal(err)
	}
	p, err := speedybox.NewBESS([]speedybox.NF{mon}, speedybox.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	mk := func(sport uint16) *speedybox.Packet {
		pkt, err := speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{10, 0, 0, 2},
			SrcPort: sport, DstPort: 53, Proto: 17, Payload: []byte("q"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	// 30 one-packet UDP flows, then one busy flow.
	for i := 0; i < 30; i++ {
		if _, err := p.Process(mk(uint16(2000 + i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := p.Process(mk(9999)); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Engine().Global().Len(); got != 31 {
		t.Fatalf("rules before expiry = %d", got)
	}
	// The idle flows' epoch ends here; the busy flow's packets stamp the
	// next one.
	if n := p.Engine().ExpireIdle(35); n != 0 {
		t.Fatalf("the first sweep expired %d flows", n)
	}
	for i := 0; i < 40; i++ {
		if _, err := p.Process(mk(9999)); err != nil {
			t.Fatal(err)
		}
	}
	expired := p.Engine().ExpireIdle(35)
	if expired != 30 {
		t.Errorf("expired = %d, want the 30 idle flows", expired)
	}
	if got := p.Engine().Global().Len(); got != 1 {
		t.Errorf("rules after expiry = %d, want 1", got)
	}
	// The busy flow still fast-paths.
	pkt := mk(9999)
	if _, err := p.Process(pkt); err != nil {
		t.Fatal(err)
	}
	if p.Engine().Stats().FastPath == 0 {
		t.Error("busy flow lost its rule")
	}
}
