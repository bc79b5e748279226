package mat

import (
	"fmt"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

func benchContribs(nNFs int) []Contribution {
	cs := make([]Contribution, nNFs)
	for i := range cs {
		nf := fmt.Sprintf("nf%d", i)
		cs[i] = Contribution{
			NF: nf,
			Rule: &LocalRule{
				Actions: []HeaderAction{
					Modify(packet.FieldDstIP, []byte{byte(i), 1, 2, 3}),
					Modify(packet.FieldDstPort, packet.PutUint16(uint16(8000+i))),
				},
				Funcs: []uint8{0},
			},
			Site: &sfunc.Site{NF: nf, Funcs: []sfunc.Func{{
				Name: "sf", Class: sfunc.ClassIgnore,
				Run: func(sfunc.Args, *packet.Packet) (uint64, error) { return 10, nil },
			}}},
		}
	}
	return cs
}

// BenchmarkConsolidate measures the Global MAT rule-synthesis cost per
// chain length — the work charged once per flow on the initial packet.
func BenchmarkConsolidate(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("nfs=%d", n), func(b *testing.B) {
			cs := benchContribs(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Consolidate(1, cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApplyConsolidated vs BenchmarkApplyNaive is the header-
// action design ablation: one merged application against per-NF
// application, each modify patching the checksums (the R1+R3
// redundancy).
func BenchmarkApplyConsolidated(b *testing.B) {
	cs := benchContribs(4)
	rule, err := Consolidate(1, cs)
	if err != nil {
		b.Fatal(err)
	}
	spec := packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 128),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.MustBuild(spec)
		if _, err := rule.ApplyHeader(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyNaive is the unconsolidated baseline for the ablation
// above.
func BenchmarkApplyNaive(b *testing.B) {
	cs := benchContribs(4)
	spec := packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: 1, DstPort: 2, Payload: make([]byte, 128),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := packet.MustBuild(spec)
		if _, err := ApplyNaive(p, cs); err != nil {
			b.Fatal(err)
		}
	}
}

// chain1Rule is the rule Chain1 consolidates for an outbound flow: the
// NAT's source address and port, the load balancer's backend address.
func chain1Rule(tb testing.TB) *GlobalRule {
	tb.Helper()
	rule, err := Consolidate(1, []Contribution{
		{NF: "mazunat", Rule: &LocalRule{Actions: []HeaderAction{
			Modify(packet.FieldSrcIP, []byte{198, 51, 100, 1}),
			Modify(packet.FieldSrcPort, packet.PutUint16(20000)),
		}}},
		{NF: "maglev", Rule: &LocalRule{Actions: []HeaderAction{Modify(packet.FieldDstIP, []byte{192, 168, 1, 10})}}},
		{NF: "monitor", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
		{NF: "ipfilter", Rule: &LocalRule{Actions: []HeaderAction{Forward()}}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rule
}

// BenchmarkExecHeader measures Chain1's three modifies at a small, the
// benchmark's largest and an MTU-sized payload. The time is flat: the
// executor patches the two checksums for the ten bytes it rewrites and
// reads nothing of the segment. (When it refreshed them by summing the
// segment the three sizes read 58, 76 and 188 ns; patching by delta
// with each field looked up per packet, 39; with each modify resolved
// when the program is compiled, ~23, on a 2-vCPU Xeon.)
func BenchmarkExecHeader(b *testing.B) {
	rule := chain1Rule(b)
	for _, n := range []int{16, 200, 1400} {
		b.Run(fmt.Sprintf("payload=%d", n), func(b *testing.B) {
			p := packet.MustBuild(packet.Spec{
				SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
				SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP, Payload: make([]byte, n),
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rule.ExecHeader(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hashedFIDs returns n distinct FIDs scattered over the 20-bit FID
// space the way tuple hashing scatters them (an odd multiplier is a
// bijection modulo 2^20), so probe chains and cache misses are those
// of real traffic, not of a sequential fill.
func hashedFIDs(n int) []flow.FID {
	fids := make([]flow.FID, n)
	for i := range fids {
		fids[i] = flow.FID(uint32(i+1) * 2654435761 & flow.MaxFID)
	}
	return fids
}

// trackedFlows returns a flow table holding an established flow at each
// FID, the way Restore places them.
func trackedFlows(fids []flow.FID) *flow.Table {
	flows := flow.NewTable()
	for i, fid := range fids {
		flows.RestoreEntry(flow.Entry{FID: fid, State: flow.StateEstablished, Tuple: packet.FiveTuple{
			SrcIP: packet.IP4(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: packet.IP4(10, 255, 0, 1),
			SrcPort: 4000, DstPort: 80, Proto: packet.ProtoUDP}})
	}
	return flows
}

// residentGlobal returns a table over flows holding one preallocated
// rule per FID.
func residentGlobal(flows *flow.Table, fids []flow.FID) *Global {
	g := NewGlobal(flows)
	rules := make([]GlobalRule, len(fids))
	for i, fid := range fids {
		rules[i].FID = fid
		g.Install(&rules[i])
	}
	return g
}

// BenchmarkGlobalLookup measures the fetch a caller holding only the FID
// makes: LookupLive over 32 768 flows' rules at hashed FIDs — the FID
// index probe plus the read off the entry.
func BenchmarkGlobalLookup(b *testing.B) {
	fids := hashedFIDs(32768)
	g := residentGlobal(trackedFlows(fids), fids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.LookupLive(fids[i&(len(fids)-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

// globalChurn returns one flow set-up plus teardown: an install+remove
// pair of a preallocated rule, cycling through 32 768 FIDs, beside
// 32 768 flows that keep their rules. With detached false the cycled
// FIDs are flows' own — the realistic case — so a pair is two edits of
// an entry that exists and allocates nothing. With detached true they
// are FIDs no flow holds, the corner the benchmark's side-rule rung
// times: every pair makes and unlinks a detached entry — one 64-byte
// entry a pair, and the FID index's tombstones and compactions with it.
func globalChurn(detached bool) func() {
	const churn = 1 << 15
	fids := hashedFIDs(churn + 32768)
	tracked := fids
	if detached {
		tracked = fids[churn:]
	}
	g := residentGlobal(trackedFlows(tracked), fids[churn:])
	var rule GlobalRule // free for reuse once removed
	i := 0
	return func() {
		rule.FID = fids[i&(churn-1)]
		i++
		g.Install(&rule)
		g.Remove(rule.FID)
	}
}

// BenchmarkGlobalInstallRemove measures globalChurn's pairs: the write
// side of the rule word. An op is a pair.
func BenchmarkGlobalInstallRemove(b *testing.B) {
	for _, tc := range []struct {
		name     string
		detached bool
	}{{"resident=32768", false}, {"detached", true}} {
		b.Run(tc.name, func(b *testing.B) {
			pair := globalChurn(tc.detached)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair()
			}
		})
	}
}

// TestGlobalInstallRemoveAllocatesNothing: beside 32 768 resident
// rules, a set-up and teardown on a flow's own FID allocates nothing —
// a copied rule, an entry or a slot array per mutation fails it.
// The count is exact: one run is a cycle through every churned FID.
func TestGlobalInstallRemoveAllocatesNothing(t *testing.T) {
	pair := globalChurn(false)
	cycle := func() {
		for i := 0; i < 1<<15; i++ {
			pair()
		}
	}
	if n := testing.AllocsPerRun(1, cycle); n != 0 {
		t.Errorf("%v allocs over 32 768 install+remove pairs, want 0", n)
	}
}
