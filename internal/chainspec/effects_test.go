package chainspec

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/cost"
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// effectsTrace is a few flows over TCP and UDP, each of several packets:
// SYNs enough to take a flow over a small SYN threshold, data that
// matches the default Snort rules, flows into the NAT's external
// address (translated back with a translation, dropped without one),
// and one carrying an AH, which a decapsulating VPN removes.
func effectsTrace(t *testing.T) []*packet.Packet {
	t.Helper()
	var pkts []*packet.Packet
	add := func(n int, spec packet.Spec, ah bool) {
		for i := 0; i < n; i++ {
			s := spec
			s.Seq = uint32(i)
			p, err := packet.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			if ah {
				if err := p.EncapAH(7, uint32(i)); err != nil {
					t.Fatal(err)
				}
			}
			pkts = append(pkts, p)
		}
	}
	out := packet.Spec{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(192, 0, 2, 1), SrcPort: 1234, DstPort: 80, TTL: 64}
	syn := out
	syn.Proto, syn.TCPFlags = packet.ProtoTCP, packet.TCPFlagSYN
	add(4, syn, false)
	data := out
	data.Proto, data.TCPFlags, data.Payload = packet.ProtoTCP, packet.TCPFlagACK, []byte("ATTACK GET /admin LOGIN")
	add(3, data, false)
	voice := packet.Spec{Proto: packet.ProtoUDP, SrcIP: packet.IP4(10, 0, 0, 2), DstIP: packet.IP4(192, 0, 2, 2),
		SrcPort: 5060, DstPort: 5060, TTL: 1, Payload: []byte("select a from b")}
	add(3, voice, false)
	in := packet.Spec{Proto: packet.ProtoUDP, SrcIP: packet.IP4(192, 0, 2, 9), DstIP: packet.IP4(1, 1, 1, 1),
		SrcPort: 53, DstPort: 20000, TTL: 0, Payload: []byte("reply")}
	add(2, in, false)
	in.DstPort = 30000
	add(1, in, false)
	tunnel := packet.Spec{Proto: packet.ProtoUDP, SrcIP: packet.IP4(10, 0, 0, 3), DstIP: packet.IP4(192, 0, 2, 3),
		SrcPort: 4000, DstPort: 8801, TTL: 9, Payload: []byte("tunnelled")}
	add(2, tunnel, true)
	return pkts
}

// TestNFEffectsIndependentOfRecording: an NF states each effect once,
// through the Ctx call that applies, charges and records it, so whether
// its context records changes nothing but the recording and its price.
// Every NF the catalog builds processes one trace twice, on an instance
// whose contexts record and on one whose contexts do not: packet for
// packet the output bytes, the verdict, the error and the NF's words on
// the flow must be the same, and the NF's ledger stage must differ by
// exactly what recording charges — Model.RecordHA a recorded action,
// RecordSF a state function, RecordEvent a registered event.
func TestNFEffectsIndependentOfRecording(t *testing.T) {
	// drops says the trace takes the NF down its drop path.
	for i, tc := range []struct {
		spec  NFSpec
		drops bool
	}{
		{NFSpec{Type: "ipfilter"}, false},
		{NFSpec{Type: "ipfilter", DefaultDeny: true}, true},
		{NFSpec{Type: "monitor"}, false},
		{NFSpec{Type: "snort"}, false},
		{NFSpec{Type: "maglev", Backends: []BackendSpec{{Name: "a", IP: "192.168.1.10", Port: 8080}, {Name: "b", IP: "192.168.1.11", Port: 8081}}}, false},
		{NFSpec{Type: "mazunat", InternalPrefix: "10.0.0.0/8", ExternalIP: "1.1.1.1"}, true},
		{NFSpec{Type: "vpn-encap"}, false},
		{NFSpec{Type: "vpn-decap"}, false},
		{NFSpec{Type: "dos", SYNThreshold: 2}, true},
		{NFSpec{Type: "ratelimiter", Quota: 6}, true},
		{NFSpec{Type: "gateway", NextHopMAC: "02:00:00:00:00:01", VoicePorts: []uint16{5060}, VideoPorts: []uint16{8801}}, false},
		{NFSpec{Type: "synthetic"}, false},
		{NFSpec{Type: "synthetic", Cycles: 500, Class: "write"}, false},
	} {
		spec := tc.spec
		t.Run(fmt.Sprintf("%d-%s", i, spec.Type), func(t *testing.T) {
			var sides [2]struct {
				nf     core.NF
				events *event.Table
			}
			for s := range sides {
				nf, err := spec.Instantiate("nf")
				if err != nil {
					t.Fatal(err)
				}
				sides[s].nf, sides[s].events = nf, event.NewTable(flow.NewTable())
			}
			model := cost.DefaultModel()
			fids := map[packet.FiveTuple]flow.FID{}
			drops := 0
			for n, p := range effectsTrace(t) {
				ft, err := p.FiveTuple()
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := fids[ft]; !ok {
					fids[ft] = flow.FID(len(fids) + 1)
				}
				fid := fids[ft]
				type outcome struct {
					data    []byte
					verdict core.Verdict
					err     string
					words   []uint64
					cycles  uint64
					charged uint64 // what recording is to cost
				}
				var got [2]outcome
				for s, recording := range []bool{true, false} {
					side := &sides[s]
					var flows *core.FlowStates
					if st, ok := side.nf.(core.Stateful); ok {
						flows = st.FlowStates()
					}
					ledger := cost.NewLedger()
					registered := side.events.RegisteredTotal()
					ctx := core.NewCtx("nf", core.CtxConfig{FID: fid, Model: model, Ledger: ledger,
						Events: side.events, Recording: recording, Flows: flows})
					q := p.Clone()
					o := &got[s]
					o.verdict, err = side.nf.Process(ctx, q)
					if err != nil {
						o.err = err.Error()
					}
					o.data = bytes.Clone(q.Data())
					if flows != nil {
						st := flows.Of(fid)
						for w := range st {
							o.words = append(o.words, st[w].Load())
						}
					}
					o.cycles = ledger.Stage("nf")
					if r, ok := ctx.Recorded(); ok {
						o.charged = uint64(len(r.Actions))*model.RecordHA + uint64(len(r.Funcs))*model.RecordSF
					}
					o.charged += (side.events.RegisteredTotal() - registered) * model.RecordEvent
					if !recording && o.charged != 0 {
						t.Fatalf("packet %d: a context that does not record recorded %d cycles' worth", n, o.charged)
					}
				}
				rec, plain := got[0], got[1]
				if plain.verdict == core.VerdictDrop {
					drops++
				}
				if !bytes.Equal(rec.data, plain.data) {
					t.Errorf("packet %d: recording output\n% x\nplain output\n% x", n, rec.data, plain.data)
				}
				if rec.verdict != plain.verdict || rec.err != plain.err {
					t.Errorf("packet %d: recording %v (%q), plain %v (%q)", n, rec.verdict, rec.err, plain.verdict, plain.err)
				}
				if fmt.Sprint(rec.words) != fmt.Sprint(plain.words) {
					t.Errorf("packet %d: words %v recording, %v plain", n, rec.words, plain.words)
				}
				if rec.cycles != plain.cycles+rec.charged {
					t.Errorf("packet %d: %d cycles recording, %d plain; want the plain ones and %d for the recording",
						n, rec.cycles, plain.cycles, rec.charged)
				}
			}
			if (drops > 0) != tc.drops {
				t.Errorf("%d packets dropped; want some: %v", drops, tc.drops)
			}
		})
	}
}
