// VPN tunnel segment: the §V-B encap/decap stack elimination in
// action. An ingress gateway adds an AH header to every packet, an IDS
// and a monitor process the tunneled traffic, and an egress gateway
// removes the header. On the original path every packet pays the
// push/pop (plus two checksum refreshes); SpeedyBox's consolidation
// recognizes the matched encap/decap pair, cancels both, and the fast
// path touches no headers at all — while the packet output stays
// byte-identical.
package main

import (
	"bytes"
	"fmt"
	"log"

	speedybox "github.com/fastpathnfv/speedybox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildChain() ([]speedybox.NF, error) {
	enc, err := speedybox.NewVPNGateway(speedybox.VPNConfig{
		Name: "vpn-ingress", Mode: speedybox.VPNEncap, SPIBase: 0x1000,
	})
	if err != nil {
		return nil, err
	}
	ids, err := speedybox.NewSnort("snort", speedybox.DefaultSnortRules())
	if err != nil {
		return nil, err
	}
	mon, err := speedybox.NewMonitor("monitor")
	if err != nil {
		return nil, err
	}
	dec, err := speedybox.NewVPNGateway(speedybox.VPNConfig{
		Name: "vpn-egress", Mode: speedybox.VPNDecap,
	})
	if err != nil {
		return nil, err
	}
	return []speedybox.NF{enc, ids, mon, dec}, nil
}

func run() error {
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 11, Flows: 100, Interleave: true,
	})
	if err != nil {
		return err
	}

	type result struct {
		label  string
		cycles float64
		outs   [][]byte
	}
	var results []result
	for _, mode := range []struct {
		label string
		opts  speedybox.Options
	}{
		{"original chain", speedybox.BaselineOptions()},
		{"with SpeedyBox", speedybox.DefaultOptions()},
	} {
		chain, err := buildChain()
		if err != nil {
			return err
		}
		p, err := speedybox.NewBESS(chain, mode.opts)
		if err != nil {
			return err
		}
		pkts := tr.Packets()
		var cycles uint64
		var outs [][]byte
		for _, pkt := range pkts {
			m, err := p.Process(pkt)
			if err != nil {
				_ = p.Close()
				return err
			}
			cycles += m.WorkCycles
			outs = append(outs, append([]byte(nil), pkt.Data()...))
		}
		if mode.opts.EnableSpeedyBox {
			fmt.Printf("consolidated Global MAT sample:\n%s\n", sampleRules(p, 3))
		}
		if err := p.Close(); err != nil {
			return err
		}
		results = append(results, result{
			label:  mode.label,
			cycles: float64(cycles) / float64(len(pkts)),
			outs:   outs,
		})
	}

	for _, r := range results {
		fmt.Printf("%-16s %.0f cycles/packet\n", r.label, r.cycles)
	}
	for i := range results[0].outs {
		if !bytes.Equal(results[0].outs[i], results[1].outs[i]) {
			return fmt.Errorf("packet %d differs between paths", i)
		}
	}
	fmt.Println("\nall packet outputs byte-identical; matched encap/decap pair fully eliminated")
	return nil
}

func sampleRules(p *speedybox.Platform, n int) string {
	dump := p.Engine().Global().Dump()
	out := ""
	for i, line := range bytes.Split([]byte(dump), []byte("\n")) {
		if i >= n || len(line) == 0 {
			break
		}
		out += "  " + string(line) + "\n"
	}
	return out
}
