package ipfilter

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// reference is the verdict the ACL's definition gives: the first rule
// that Rule.Matches the tuple, or the default.
func reference(rules []Rule, defaultDeny bool, ft packet.FiveTuple) bool {
	for _, r := range rules {
		if r.Matches(ft) {
			return r.Deny
		}
	}
	return defaultDeny
}

// checkScan fails the test if the compiled scan of rules disagrees with
// the reference on ft, under either default.
func checkScan(t *testing.T, rules []Rule, ft packet.FiveTuple) {
	t.Helper()
	for _, def := range []bool{false, true} {
		f, err := New(Config{Name: "fw", Rules: rules, DefaultDeny: def})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.scan(&ft), reference(rules, def, ft); got != want {
			t.Fatalf("rules %+v, default deny %v, tuple %+v: scan says deny=%v, reference %v", rules, def, ft, got, want)
		}
	}
}

// TestCompiledACLMatchesReference: the compiled scan's verdict is the
// first match over Rule.Matches, or the default, on the corners the
// compilation folds away — prefixes of no bits and of more than 32, the
// (0,0) port range, an empty one (Lo > Hi), any protocol and the wrong
// one — and on an empty ACL.
func TestCompiledACLMatchesReference(t *testing.T) {
	base := packet.FiveTuple{SrcIP: packet.IP4(10, 1, 2, 3), DstIP: packet.IP4(192, 168, 7, 9), SrcPort: 4000, DstPort: 443, Proto: packet.ProtoTCP}
	rules := map[string]Rule{
		"zero bits":         {Src: Prefix{Addr: packet.IP4(99, 0, 0, 0), Bits: 0}, Deny: true},
		"negative bits":     {Dst: Prefix{Addr: packet.IP4(1, 2, 3, 4), Bits: -5}, Deny: true},
		"bits past 32":      {Src: Prefix{Addr: packet.IP4(10, 1, 2, 3), Bits: 33}, Deny: true},
		"bits far past 32":  {Dst: Prefix{Addr: packet.IP4(192, 168, 7, 9), Bits: 200}, Deny: true},
		"/8":                {Src: Prefix{Addr: packet.IP4(10, 200, 0, 0), Bits: 8}, Deny: true},
		"/31":               {Dst: Prefix{Addr: packet.IP4(192, 168, 7, 8), Bits: 31}, Deny: true},
		"/1":                {Dst: Prefix{Addr: packet.IP4(128, 0, 0, 0), Bits: 1}, Deny: true},
		"any port":          {SrcPort: PortRange{}, DstPort: PortRange{}, Deny: true},
		"port interval":     {DstPort: PortRange{Lo: 400, Hi: 500}, Deny: true},
		"one port":          {SrcPort: PortRange{Lo: 4000, Hi: 4000}, Deny: true},
		"port zero only":    {DstPort: PortRange{Lo: 0, Hi: 1}, Deny: true},
		"empty port range":  {DstPort: PortRange{Lo: 500, Hi: 400}, Deny: true},
		"any protocol":      {Proto: 0, Deny: true},
		"tcp":               {Proto: packet.ProtoTCP, Deny: true},
		"udp":               {Proto: packet.ProtoUDP, Deny: true},
		"allow then ignore": {Src: Prefix{Addr: packet.IP4(10, 1, 2, 3), Bits: 32}},
	}
	tuples := []packet.FiveTuple{base}
	for _, mut := range []func(*packet.FiveTuple){
		func(ft *packet.FiveTuple) { ft.SrcIP = packet.IP4(10, 1, 2, 4) },
		func(ft *packet.FiveTuple) { ft.SrcIP = packet.IP4(11, 1, 2, 3) },
		func(ft *packet.FiveTuple) { ft.DstIP = packet.IP4(192, 168, 7, 8) },
		func(ft *packet.FiveTuple) { ft.DstIP = packet.IP4(127, 255, 255, 255) },
		func(ft *packet.FiveTuple) { ft.DstIP = packet.IP4(0, 0, 0, 0) },
		func(ft *packet.FiveTuple) { ft.DstPort = 0 },
		func(ft *packet.FiveTuple) { ft.DstPort = 65535 },
		func(ft *packet.FiveTuple) { ft.DstPort = 400 },
		func(ft *packet.FiveTuple) { ft.DstPort = 500 },
		func(ft *packet.FiveTuple) { ft.DstPort = 501 },
		func(ft *packet.FiveTuple) { ft.SrcPort = 3999 },
		func(ft *packet.FiveTuple) { ft.Proto = packet.ProtoUDP },
		func(ft *packet.FiveTuple) { ft.Proto = 0 },
	} {
		ft := base
		mut(&ft)
		tuples = append(tuples, ft)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 64; i++ {
		tuples = append(tuples, randomTuple(rng))
	}

	var all []Rule
	for name, r := range rules {
		t.Run(name, func(t *testing.T) {
			for _, ft := range tuples {
				checkScan(t, []Rule{r}, ft)
			}
		})
		all = append(all, r)
	}
	t.Run("first match wins", func(t *testing.T) {
		for i := range all {
			// Every rotation puts another rule first.
			rot := append(append([]Rule(nil), all[i:]...), all[:i]...)
			for _, ft := range tuples {
				checkScan(t, rot, ft)
			}
		}
	})
	t.Run("empty ACL", func(t *testing.T) {
		for _, ft := range tuples {
			checkScan(t, nil, ft)
		}
	})
}

func randomTuple(rng *rand.Rand) packet.FiveTuple {
	var ft packet.FiveTuple
	binary.BigEndian.PutUint32(ft.SrcIP[:], rng.Uint32())
	binary.BigEndian.PutUint32(ft.DstIP[:], rng.Uint32())
	ft.SrcPort, ft.DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
	ft.Proto = []uint8{0, packet.ProtoTCP, packet.ProtoUDP, 1}[rng.IntN(4)]
	return ft
}

// FuzzACLScan holds the compiled scan to the reference on fuzzed ACLs
// and tuples: a rule is 20 bytes (source address and prefix length as a
// signed byte, destination likewise, the four port bounds, protocol,
// deny), the tuple the 13 bytes after the rules.
func FuzzACLScan(f *testing.F) {
	rule := func(src [4]byte, sBits int8, dst [4]byte, dBits int8, sLo, sHi, dLo, dHi uint16, proto uint8, deny bool) []byte {
		b := append(src[:], byte(sBits))
		b = append(b, dst[:]...)
		b = append(b, byte(dBits))
		for _, p := range []uint16{sLo, sHi, dLo, dHi} {
			b = binary.BigEndian.AppendUint16(b, p)
		}
		d := byte(0)
		if deny {
			d = 1
		}
		return append(b, proto, d)
	}
	tuple := []byte{10, 0, 0, 1, 20, 0, 0, 1, 0x9c, 0x40, 0x00, 0x50, packet.ProtoTCP}
	f.Add([]byte{0}, tuple)
	f.Add(rule(packet.IP4(10, 0, 0, 0), 8, packet.IP4(0, 0, 0, 0), 0, 0, 0, 80, 80, packet.ProtoTCP, true), tuple)
	f.Add(rule(packet.IP4(10, 0, 0, 1), 40, packet.IP4(20, 0, 0, 1), -1, 0, 0, 90, 70, 0, true), tuple)
	f.Add(append(rule(packet.IP4(10, 0, 0, 1), 32, packet.IP4(0, 0, 0, 0), 0, 0, 0, 0, 0, packet.ProtoUDP, false),
		rule(packet.IP4(0, 0, 0, 0), 0, packet.IP4(20, 0, 0, 0), 24, 40000, 40000, 0, 0, 0, true)...), tuple)
	f.Fuzz(func(t *testing.T, acl, tup []byte) {
		var rules []Rule
		for ; len(acl) >= 20 && len(rules) < 32; acl = acl[20:] {
			r := Rule{
				Src:   Prefix{Addr: [4]byte(acl[0:4]), Bits: int(int8(acl[4]))},
				Dst:   Prefix{Addr: [4]byte(acl[5:9]), Bits: int(int8(acl[9]))},
				Proto: acl[18], Deny: acl[19]&1 == 1,
			}
			r.SrcPort = PortRange{Lo: binary.BigEndian.Uint16(acl[10:]), Hi: binary.BigEndian.Uint16(acl[12:])}
			r.DstPort = PortRange{Lo: binary.BigEndian.Uint16(acl[14:]), Hi: binary.BigEndian.Uint16(acl[16:])}
			rules = append(rules, r)
		}
		if len(tup) < 13 {
			t.Skip()
		}
		ft := packet.FiveTuple{
			SrcIP: [4]byte(tup[0:4]), DstIP: [4]byte(tup[4:8]),
			SrcPort: binary.BigEndian.Uint16(tup[8:]), DstPort: binary.BigEndian.Uint16(tup[10:]),
			Proto: tup[12],
		}
		checkScan(t, rules, ft)
	})
}

// aclScan returns the decision of a flow the filter has not seen — the
// per-flow cache missed on purpose — over an ACL padded to n
// never-matching rules: the scan Chain1's filter makes once a
// connection.
func aclScan(tb testing.TB, n int) func() {
	ft := packet.FiveTuple{SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(20, 0, 0, 1), SrcPort: 40000, DstPort: 80, Proto: packet.ProtoTCP}
	f, err := New(Config{Name: "fw", Rules: PadRules(nil, n)})
	if err != nil {
		tb.Fatal(err)
	}
	st := make(core.State, f.flows.Words)
	return func() {
		st[2].Store(0) // forget the decision: every call scans
		if deny, hit := f.decide(st, ft); deny || hit {
			tb.Fatalf("decide = deny %v, hit %v; want a scanned allow", deny, hit)
		}
	}
}

var aclSizes = []int{10, 100, 1000}

// BenchmarkACLScan times aclScan at each ACL size.
func BenchmarkACLScan(b *testing.B) {
	for _, n := range aclSizes {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			scan := aclScan(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan()
			}
		})
	}
}

// TestACLScanAllocatesNothing: a scan of the compiled ACL allocates
// nothing, at any size.
func TestACLScanAllocatesNothing(t *testing.T) {
	for _, n := range aclSizes {
		t.Run(fmt.Sprintf("rules=%d", n), func(t *testing.T) {
			if allocs := testing.AllocsPerRun(100, aclScan(t, n)); allocs != 0 {
				t.Errorf("%v allocs a scan, want 0", allocs)
			}
		})
	}
}
