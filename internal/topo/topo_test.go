package topo

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

func TestValidate(t *testing.T) {
	mon := chainspec.NFSpec{Type: "monitor"}
	chain := func(name string) ChainSpec {
		return ChainSpec{Name: name, NFs: []chainspec.NFSpec{mon}}
	}
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"no chains", Spec{}, ErrNoChains},
		{"unnamed chain", Spec{Chains: []ChainSpec{chain("")}}, ErrSpecInvalid},
		{"duplicate chain", Spec{Chains: []ChainSpec{chain("a"), chain("a")}}, ErrDuplicateChain},
		{"empty chain", Spec{Chains: []ChainSpec{{Name: "a"}}}, ErrSpecInvalid},
		{"NF named twice in a chain", Spec{Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor", Name: "m"}, {Type: "monitor", Name: "m"}}},
		}}, ErrSpecInvalid},
		{"NF named as a private instance", Spec{Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{mon, {Type: "monitor", Name: "a.monitor1"}}},
		}}, ErrSpecInvalid},
		{"policy unknown chain", Spec{Chains: []ChainSpec{chain("a")},
			Policies: []PolicySpec{{Chain: "b"}}}, ErrPolicyUnknownChain},
		{"policy negative tenant", Spec{Chains: []ChainSpec{chain("a")},
			Policies: []PolicySpec{{Chain: "a", Tenant: -1}}}, ErrPolicyInvalid},
		{"policy bad cidr", Spec{Chains: []ChainSpec{chain("a")},
			Policies: []PolicySpec{{Chain: "a", SrcCIDR: "nope"}}}, ErrPolicyInvalid},
		{"policy inverted ports", Spec{Chains: []ChainSpec{chain("a")},
			Policies: []PolicySpec{{Chain: "a", DstPortMin: 100, DstPortMax: 10}}}, ErrPolicyInvalid},
		{"policy bad proto", Spec{Chains: []ChainSpec{chain("a")},
			Policies: []PolicySpec{{Chain: "a", Proto: "sctp"}}}, ErrPolicyInvalid},
		{"tenant id zero", Spec{Chains: []ChainSpec{chain("a")},
			Tenants: []TenantSpec{{ID: 0}}}, ErrTenantInvalid},
		{"duplicate tenant", Spec{Chains: []ChainSpec{chain("a")},
			Tenants: []TenantSpec{{ID: 1}, {ID: 1}}}, ErrTenantInvalid},
		{"shared type conflict", Spec{Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor", Name: "x"}}},
			{Name: "b", NFs: []chainspec.NFSpec{{Type: "snort", Name: "x"}}},
		}}, ErrSharedNFMismatch},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestParse(t *testing.T) {
	doc := []byte(`{
		"name": "edge",
		"chains": [
			{"name": "web", "nfs": [
				{"type": "monitor", "name": "shared-mon"},
				{"type": "ipfilter", "acl_size": 100}]},
			{"name": "voip", "nfs": [
				{"type": "monitor", "name": "shared-mon"},
				{"type": "ratelimiter", "quota": 1000}]}
		],
		"policies": [
			{"chain": "voip", "tenant": 2, "dst_port_min": 5060, "dst_port_max": 5061, "proto": "udp"},
			{"chain": "web", "tenant": 1, "src_cidr": "10.1.0.0/16"}
		],
		"tenants": [
			{"id": 1, "rule_quota": 1000, "event_cap": 4000},
			{"id": 2, "rule_quota": 200}
		]
	}`)
	spec, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "edge" || len(spec.Chains) != 2 ||
		len(spec.Policies) != 2 || len(spec.Tenants) != 2 {
		t.Errorf("parsed spec off: %+v", spec)
	}
	for name, doc := range map[string]string{
		"truncated JSON": `{"chains": `,
		"unknown field":  `{"chains": [], "bogus": 1}`,
		"chain weight":   `{"chains": [{"name": "web", "weight": 2, "nfs": [{"type": "monitor"}]}]}`,
	} {
		if _, err := Parse([]byte(doc)); !errors.Is(err, ErrSpecInvalid) {
			t.Errorf("%s: err = %v, want %v", name, err, ErrSpecInvalid)
		}
	}
}

func build(t *testing.T, spec *Spec) *Topology {
	t.Helper()
	topo, err := Build(spec, BuildConfig{Options: core.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { topo.Close() })
	return topo
}

func TestClassifier(t *testing.T) {
	topo := build(t, &Spec{
		Name: "cls",
		Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
			{Name: "b", NFs: []chainspec.NFSpec{{Type: "monitor"}}},
		},
		Policies: []PolicySpec{
			{Chain: "b", Tenant: 7, SrcCIDR: "10.9.0.0/16", Proto: "udp"},
			{Chain: "b", Tenant: 8, DstPortMin: 2000, DstPortMax: 2010},
		},
	})
	pkt := func(src [4]byte, dport uint16, proto uint8) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: src, DstIP: packet.IP4(192, 0, 2, 1),
			SrcPort: 40000, DstPort: dport, Proto: proto,
		})
	}
	cases := []struct {
		name   string
		pkt    *packet.Packet
		chain  int
		tenant int32
	}{
		{"udp in cidr", pkt(packet.IP4(10, 9, 1, 2), 53, packet.ProtoUDP), 1, 7},
		{"tcp in cidr (proto mismatch)", pkt(packet.IP4(10, 9, 1, 2), 80, packet.ProtoTCP), 0, 0},
		{"udp outside cidr", pkt(packet.IP4(10, 10, 1, 2), 53, packet.ProtoUDP), 0, 0},
		{"port range hit", pkt(packet.IP4(172, 16, 0, 1), 2005, packet.ProtoTCP), 1, 8},
		{"port range edge", pkt(packet.IP4(172, 16, 0, 1), 2010, packet.ProtoTCP), 1, 8},
		{"port range miss", pkt(packet.IP4(172, 16, 0, 1), 2011, packet.ProtoTCP), 0, 0},
		{"first match wins", pkt(packet.IP4(10, 9, 3, 4), 2005, packet.ProtoUDP), 1, 7},
	}
	for _, tc := range cases {
		if got := topo.Route(tc.pkt); got != tc.chain || tc.pkt.Meta.Tenant != tc.tenant {
			t.Errorf("%s: chain=%d tenant=%d, want %d/%d",
				tc.name, got, tc.pkt.Meta.Tenant, tc.chain, tc.tenant)
		}
	}
}

func TestBuildRejectsUnknownNF(t *testing.T) {
	_, err := Build(&Spec{Chains: []ChainSpec{
		{Name: "a", NFs: []chainspec.NFSpec{{Type: "warpdrive"}}},
	}}, BuildConfig{Options: core.DefaultOptions()})
	if err == nil {
		t.Fatal("unknown NF type accepted")
	}
}

// mergedTrace interleaves one sub-trace per destination port,
// round-robin, so flows of every service overlap in time.
func mergedTrace(t *testing.T, seed int64, flows int, ports ...uint16) []*packet.Packet {
	t.Helper()
	var streams [][]*packet.Packet
	for i, port := range ports {
		tr, err := trace.Generate(trace.Config{
			Seed: seed + int64(i), Flows: flows, DstPort: port, Interleave: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, tr.Packets())
	}
	var out []*packet.Packet
	for k := 0; ; k++ {
		emitted := false
		for _, s := range streams {
			if k < len(s) {
				out = append(out, s[k])
				emitted = true
			}
		}
		if !emitted {
			return out
		}
	}
}

// TestSharedNFAcrossChains checks that a named NF is one instance: the
// monitor listed by both chains must see every packet of both.
func TestSharedNFAcrossChains(t *testing.T) {
	topo := build(t, &Spec{
		Name: "shared",
		Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{{Type: "monitor", Name: "mon"}}},
			{Name: "b", NFs: []chainspec.NFSpec{{Type: "monitor", Name: "mon"}}},
		},
		Policies: []PolicySpec{{Chain: "b", DstPortMin: 2000}},
	})
	pkts := mergedTrace(t, 3, 12, 1000, 2000)
	chains := make(map[int]int)
	for _, pkt := range pkts {
		chains[topo.Route(pkt)]++
		if _, err := topo.RunBatch([]*packet.Packet{pkt}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if chains[0] == 0 || chains[1] == 0 {
		t.Fatalf("traffic did not split across chains: %v", chains)
	}
	mon := topo.NF("mon").(*monitor.Monitor)
	if got := mon.Totals().Packets; got != uint64(len(pkts)) {
		t.Errorf("shared monitor counted %d packets, want %d", got, len(pkts))
	}
	// Anonymous NFs stay private: both chains of TestClassifier's shape
	// would get distinct "a.monitor1"/"b.monitor1" instances; here only
	// the shared name exists.
	if topo.NF("a.monitor1") != nil {
		t.Error("anonymous instance registered under a shared monitor spec")
	}
}

// tenantSpec is the isolation fixture: one chain whose ratelimiter
// registers an Event Table entry for every flow, split across tenant 1
// (port 1000) and tenant 2 (port 2000) by policy.
func tenantSpec(tenants []TenantSpec) *Spec {
	return &Spec{
		Name: "tenants",
		Chains: []ChainSpec{{Name: "svc", NFs: []chainspec.NFSpec{
			{Type: "ratelimiter", Quota: 1 << 30},
			{Type: "monitor", Name: "mon"},
		}}},
		Policies: []PolicySpec{
			{Chain: "svc", Tenant: 1, DstPortMin: 1000},
			{Chain: "svc", Tenant: 2, DstPortMin: 2000},
		},
		Tenants: tenants,
	}
}

// lockstep feeds two identically generated streams through a limited
// and an unlimited topology and requires bit-identical externally
// visible behaviour: admission denials degrade performance, never
// correctness. probe is called after each packet pair.
func lockstep(t *testing.T, limited, free *Topology, probe func()) {
	t.Helper()
	lim := mergedTrace(t, 11, 24, 1000, 2000)
	ref := mergedTrace(t, 11, 24, 1000, 2000)
	for i := range lim {
		lres, err := limited.RunBatch(lim[i:i+1], 1)
		if err != nil {
			t.Fatal(err)
		}
		rres, err := free.RunBatch(ref[i:i+1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if lres.Drops != rres.Drops {
			t.Fatalf("packet %d: %d drops under quotas, %d without", i, lres.Drops, rres.Drops)
		}
		if !lim[i].Dropped() && !bytes.Equal(lim[i].Data(), ref[i].Data()) {
			t.Fatalf("packet %d: bytes differ under quotas", i)
		}
		if probe != nil {
			probe()
		}
	}
}

// TestTenantRuleQuotaIsolation exhausts tenant 1's rule quota and
// checks the blast radius: tenant 1 is denied (and capped at its
// quota), tenant 2 keeps installing rules freely, and no verdict or
// payload byte changes anywhere.
func TestTenantRuleQuotaIsolation(t *testing.T) {
	const quota = 2
	limited := build(t, tenantSpec([]TenantSpec{{ID: 1, RuleQuota: quota}, {ID: 2}}))
	free := build(t, tenantSpec(nil))
	adm := limited.Admission()
	var max1, max2 uint64
	lockstep(t, limited, free, func() {
		if h := adm.RulesHeld(1); h > max1 {
			max1 = h
		}
		if h := adm.RulesHeld(2); h > max2 {
			max2 = h
		}
	})
	if adm.RuleDenials(1) == 0 {
		t.Error("tenant 1 never hit its rule quota; the test is vacuous")
	}
	if d := adm.RuleDenials(2); d != 0 {
		t.Errorf("tenant 2 denied %d times by tenant 1's quota", d)
	}
	if max1 > quota {
		t.Errorf("tenant 1 held %d rules, quota %d", max1, quota)
	}
	if max2 <= quota {
		t.Errorf("tenant 2 peaked at %d held rules; expected more than tenant 1's quota %d", max2, quota)
	}
	if st := limited.Engine(0).Stats(); st.RuleQuotaDenied == 0 || st.FastPath == 0 {
		t.Errorf("engine stats: ruleQuotaDenied=%d fastPath=%d", st.RuleQuotaDenied, st.FastPath)
	}
}

// TestTenantEventCapIsolation is the event-side twin: tenant 1's cap
// of one concurrent Event Table registration refuses the installs of its
// other flows' rules, charged for their events (the flows stay on the
// always-correct slow path), while tenant 2 keeps registering and
// consolidating, verdicts unchanged.
func TestTenantEventCapIsolation(t *testing.T) {
	const cap = 1
	limited := build(t, tenantSpec([]TenantSpec{{ID: 1, EventCap: cap}, {ID: 2}}))
	free := build(t, tenantSpec(nil))
	adm := limited.Admission()
	var max1, max2 uint64
	lockstep(t, limited, free, func() {
		if h := adm.EventsHeld(1); h > max1 {
			max1 = h
		}
		if h := adm.EventsHeld(2); h > max2 {
			max2 = h
		}
	})
	if adm.EventDenials(1) == 0 {
		t.Error("tenant 1 never hit its event cap; the test is vacuous")
	}
	if d := adm.EventDenials(2); d != 0 {
		t.Errorf("tenant 2 denied %d times by tenant 1's cap", d)
	}
	if max1 > cap {
		t.Errorf("tenant 1 held %d events, cap %d", max1, cap)
	}
	if max2 <= cap {
		t.Errorf("tenant 2 peaked at %d held events; expected more than tenant 1's cap %d", max2, cap)
	}
	if st := limited.Engine(0).Stats(); st.EventCapDenied == 0 || st.FastPath == 0 {
		t.Errorf("engine stats: eventCapDenied=%d fastPath=%d", st.EventCapDenied, st.FastPath)
	}
}

// twoChainSpec routes two services to two chains sharing a monitor.
func twoChainSpec() *Spec {
	return &Spec{
		Name: "pair",
		Chains: []ChainSpec{
			{Name: "a", NFs: []chainspec.NFSpec{
				{Type: "ratelimiter", Quota: 1 << 30},
				{Type: "monitor", Name: "mon"},
			}},
			{Name: "b", NFs: []chainspec.NFSpec{
				{Type: "monitor", Name: "mon"},
			}},
		},
		Policies: []PolicySpec{
			{Chain: "a", Tenant: 1, DstPortMin: 1000},
			{Chain: "b", Tenant: 2, DstPortMin: 2000},
		},
	}
}

// TestRunBatchMatchesPerPacket drives the chain-boundary run splitter
// in vectors of 16 over the same stream as per-packet RunBatch calls
// and compares the per-chain engine accounting.
func TestRunBatchMatchesPerPacket(t *testing.T) {
	serial := build(t, twoChainSpec())
	batch := build(t, twoChainSpec())
	drops := 0
	pktsA := mergedTrace(t, 5, 20, 1000, 2000)
	for i := range pktsA {
		res, err := serial.RunBatch(pktsA[i:i+1], 1)
		if err != nil {
			t.Fatal(err)
		}
		drops += res.Drops
	}
	pktsB := mergedTrace(t, 5, 20, 1000, 2000)
	res, err := batch.RunBatch(pktsB, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != len(pktsB) || res.Drops != drops {
		t.Errorf("batch packets=%d drops=%d, serial packets=%d drops=%d",
			res.Packets, res.Drops, len(pktsB), drops)
	}
	for i := 0; i < serial.NumChains(); i++ {
		if s, b := serial.Engine(i).Stats(), batch.Engine(i).Stats(); s != b {
			t.Errorf("chain %d stats diverged:\nserial: %+v\nbatch:  %+v", i, s, b)
		}
	}
}

// newMultiQueue is a workers-way MultiQueue over the topology in
// vectors of batch.
func newMultiQueue(t *testing.T, tp *Topology, workers, batch int) *platform.MultiQueue {
	t.Helper()
	mq, err := platform.NewMultiQueue(tp, workers)
	if err != nil {
		t.Fatal(err)
	}
	mq.SetBatchSize(batch)
	return mq
}

// TestMultiQueueMatchesSerial runs the topology through the parallel
// runner and compares it with the serial one: flows interleave
// differently across workers, but every chain engine must end up with
// exactly the accounting of the serial run, at every vector size.
func TestMultiQueueMatchesSerial(t *testing.T) {
	serial := build(t, twoChainSpec())
	sres, err := serial.RunBatch(mergedTrace(t, 9, 20, 1000, 2000), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{0, 8} {
		par := build(t, twoChainSpec())
		pres, err := newMultiQueue(t, par, 4, batch).Run(mergedTrace(t, 9, 20, 1000, 2000))
		if err != nil {
			t.Fatal(err)
		}
		if pres.Packets != sres.Packets || pres.Drops != sres.Drops {
			t.Errorf("batch=%d: packets=%d drops=%d, serial %d/%d",
				batch, pres.Packets, pres.Drops, sres.Packets, sres.Drops)
		}
		for i := 0; i < serial.NumChains(); i++ {
			if s, p := serial.Engine(i).Stats(), par.Engine(i).Stats(); s != p {
				t.Errorf("batch=%d: chain %d stats diverged:\nmq:     %+v\nserial: %+v", batch, i, p, s)
			}
		}
		if len(pres.QueueDepths) != 4 {
			t.Errorf("batch=%d: QueueDepths = %v, want 4 workers", batch, pres.QueueDepths)
		}
	}
}

// TestOneWorkerMultiQueueIsRunBatch: a one-worker MultiQueue drains the
// topology in arrival order, exactly as RunBatch does, so under equal
// fault schedules every chain and every tenant ends up with the same
// counters — an order change across chains would move the faults.
func TestOneWorkerMultiQueueIsRunBatch(t *testing.T) {
	spec := func() *Spec {
		s := twoChainSpec()
		s.Tenants = []TenantSpec{{ID: 1, RuleQuota: 6, EventCap: 8}, {ID: 2, RuleQuota: 4}}
		return s
	}
	faulted := func() *Topology {
		opts := core.DefaultOptions()
		opts.Faults = fault.New(fault.Config{Seed: 7, Rates: fault.UniformRates(0.05)})
		tp, err := Build(spec(), BuildConfig{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tp.Close() })
		return tp
	}
	for _, batch := range []int{1, 32} {
		serial, par := faulted(), faulted()
		sres, err := serial.RunBatch(mergedTrace(t, 13, 30, 1000, 2000), batch)
		if err != nil {
			t.Fatal(err)
		}
		if sres.Stats.SlowPathFallbacks == 0 || serial.Admission().RuleDenials(1)+serial.Admission().RuleDenials(2) == 0 {
			t.Fatalf("batch=%d: no fault fallbacks or quota denials: %+v", batch, sres.Stats)
		}
		pres, err := newMultiQueue(t, par, 1, batch).Run(mergedTrace(t, 13, 30, 1000, 2000))
		if err != nil {
			t.Fatal(err)
		}
		if pres.Packets != sres.Packets || pres.Drops != sres.Drops {
			t.Errorf("batch=%d: packets=%d drops=%d, serial %d/%d", batch, pres.Packets, pres.Drops, sres.Packets, sres.Drops)
		}
		for i := 0; i < serial.NumChains(); i++ {
			if s, p := serial.Engine(i).Stats(), par.Engine(i).Stats(); s != p {
				t.Errorf("batch=%d: chain %d stats diverged:\nmq:     %+v\nserial: %+v", batch, i, p, s)
			}
		}
		sa, pa := serial.Admission(), par.Admission()
		for _, id := range []int32{1, 2} {
			s := [4]uint64{sa.RulesHeld(id), sa.EventsHeld(id), sa.RuleDenials(id), sa.EventDenials(id)}
			p := [4]uint64{pa.RulesHeld(id), pa.EventsHeld(id), pa.RuleDenials(id), pa.EventDenials(id)}
			if s != p {
				t.Errorf("batch=%d: tenant %d rules/events held and denied %v, serial %v", batch, id, p, s)
			}
		}
	}
}

// TestClosedTopologyRefusesWork: after Close, both runners return
// platform.ErrClosed instead of processing packets.
func TestClosedTopologyRefusesWork(t *testing.T) {
	tp := build(t, twoChainSpec())
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.RunBatch(mergedTrace(t, 3, 4, 1000, 2000), 1); !errors.Is(err, platform.ErrClosed) {
		t.Errorf("RunBatch after Close: err = %v, want %v", err, platform.ErrClosed)
	}
	if _, err := newMultiQueue(t, tp, 2, 8).Run(mergedTrace(t, 3, 4, 1000, 2000)); !errors.Is(err, platform.ErrClosed) {
		t.Errorf("MultiQueue.Run after Close: err = %v, want %v", err, platform.ErrClosed)
	}
	for i := 0; i < tp.NumChains(); i++ {
		if n := tp.Engine(i).Stats().Packets; n != 0 {
			t.Errorf("chain %d processed %d packets after Close", i, n)
		}
	}
}

// TestRouteParsesOnDemand: a descriptor that has not been parsed yet is
// routed by its tuple like its parsed twin — through RunBatch and the
// MultiQueue alike — while a frame Parse rejects goes to
// chain 0 untagged, whose platform reports the parse error.
func TestRouteParsesOnDemand(t *testing.T) {
	unparsed := func(pkts []*packet.Packet) []*packet.Packet {
		out := make([]*packet.Packet, len(pkts))
		for i, p := range pkts {
			out[i] = packet.New(append([]byte(nil), p.Data()...))
		}
		return out
	}
	perChain := func(tp *Topology) []uint64 {
		out := make([]uint64, tp.NumChains())
		for i := range out {
			out[i] = tp.Engine(i).Stats().Packets
		}
		return out
	}
	parsed := build(t, twoChainSpec())
	if _, err := parsed.RunBatch(mergedTrace(t, 11, 20, 1000, 2000), 16); err != nil {
		t.Fatal(err)
	}
	want := perChain(parsed)
	if want[0] == 0 || want[1] == 0 {
		t.Fatalf("per-chain packets %v: the trace does not exercise both chains", want)
	}

	serial := build(t, twoChainSpec())
	if _, err := serial.RunBatch(unparsed(mergedTrace(t, 11, 20, 1000, 2000)), 16); err != nil {
		t.Fatal(err)
	}
	if got := perChain(serial); !slices.Equal(got, want) {
		t.Errorf("RunBatch per-chain packets: unparsed %v, parsed %v", got, want)
	}

	par := build(t, twoChainSpec())
	if _, err := newMultiQueue(t, par, 2, 8).Run(unparsed(mergedTrace(t, 11, 20, 1000, 2000))); err != nil {
		t.Fatal(err)
	}
	if got := perChain(par); !slices.Equal(got, want) {
		t.Errorf("MultiQueue per-chain packets: unparsed %v, parsed %v", got, want)
	}

	bad := packet.New([]byte{0xde, 0xad})
	if chain := par.Route(bad); chain != 0 || bad.Meta.Tenant != 0 {
		t.Errorf("malformed frame routed to chain %d tenant %d, want 0/0", chain, bad.Meta.Tenant)
	}
	if _, err := par.RunBatch([]*packet.Packet{bad}, 1); !errors.Is(err, packet.ErrTruncated) {
		t.Errorf("malformed frame: err = %v, want ErrTruncated from chain 0", err)
	}
}

// TestCheckpointAllRestoreAll: a topology built fresh from the same spec
// and restored from CheckpointAll's snapshots holds every chain's flows
// and rules, and its fast path takes up the rest of the trace exactly
// where the original's does; a snapshot list of the wrong length is
// refused. The chains are header transforms sharing a gateway: no NF
// registers a state function, so every rule comes back whole.
func TestCheckpointAllRestoreAll(t *testing.T) {
	spec := func() *Spec {
		gw := chainspec.NFSpec{Type: "gateway", Name: "gw", NextHopMAC: "02:00:00:00:00:fe"}
		return &Spec{
			Name: "headers",
			Chains: []ChainSpec{
				{Name: "a", NFs: []chainspec.NFSpec{{Type: "ipfilter", ACLSize: 20}, gw}},
				{Name: "b", NFs: []chainspec.NFSpec{gw}},
			},
			Policies: []PolicySpec{
				{Chain: "a", Tenant: 1, DstPortMin: 1000},
				{Chain: "b", Tenant: 2, DstPortMin: 2000},
			},
		}
	}
	orig, restored := build(t, spec()), build(t, spec())
	a, b := mergedTrace(t, 21, 12, 1000, 2000), mergedTrace(t, 21, 12, 1000, 2000)
	half := len(a) / 2
	if _, err := orig.RunBatch(a[:half], 8); err != nil {
		t.Fatal(err)
	}
	cps, err := orig.CheckpointAll()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreAll(cps[:1]); err == nil {
		t.Error("RestoreAll took one checkpoint for two chains")
	}
	if err := restored.RestoreAll(cps); err != nil {
		t.Fatal(err)
	}
	before := make([]core.Stats, orig.NumChains())
	for i := range before {
		o, r := orig.Engine(i), restored.Engine(i)
		if o.FlowLen() != r.FlowLen() || o.Global().Len() != r.Global().Len() {
			t.Errorf("chain %d: restored %d flows, %d rules; original %d, %d",
				i, r.FlowLen(), r.Global().Len(), o.FlowLen(), o.Global().Len())
		}
		if o.Global().Len() == 0 {
			t.Errorf("chain %d holds no rule at the checkpoint", i)
		}
		before[i] = o.Stats()
	}
	if _, err := orig.RunBatch(a[half:], 8); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.RunBatch(b[half:], 8); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		o, r := orig.Engine(i).Stats(), restored.Engine(i).Stats()
		if o.FastPath-before[i].FastPath != r.FastPath || o.Packets-before[i].Packets != r.Packets {
			t.Errorf("chain %d after restore: %d of %d packets fast, original %d of %d",
				i, r.FastPath, r.Packets, o.FastPath-before[i].FastPath, o.Packets-before[i].Packets)
		}
	}
}
