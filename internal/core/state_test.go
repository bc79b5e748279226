package core_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/nf/ipfilter"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/mazunat"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/wal"
)

// These tests hold the NFs' per-flow state — words on the flow record,
// owned by the engine — to its contract: made on first use, gone with
// the flow, zeroed for a connection that reuses the entry, dropped for
// an NF that leaves the chain, and carried exactly by migration records
// and checkpoints between engines that share no NF object.

// chain1IDSJSON is Chain1 with a Snort behind it: every bundled NF that a
// migrating flow's answers can be read from.
const chain1IDSJSON = `{"name": "chain1-ids", "nfs": [
  {"type": "mazunat", "name": "mazunat", "internal_prefix": "10.0.0.0/8", "external_ip": "198.51.100.1"},
  {"type": "maglev", "name": "maglev", "backends": [
    {"name": "backend-a", "ip": "192.168.1.10", "port": 8080},
    {"name": "backend-b", "ip": "192.168.1.11", "port": 8080},
    {"name": "backend-c", "ip": "192.168.1.12", "port": 8080}]},
  {"type": "monitor", "name": "monitor"},
  {"type": "ipfilter", "name": "ipfilter", "acl_size": 10},
  {"type": "snort", "name": "snort"}]}`

// stack is an engine over a chain of its own NF objects.
type stack struct {
	eng *core.Engine
	nat *mazunat.NAT
	lb  *maglev.Maglev
	mon *monitor.Monitor
	fw  *ipfilter.Filter
	ids *snort.Snort
	nfs []core.NF
}

func newStack(t testing.TB, json string, opts core.Options) *stack {
	t.Helper()
	s := &stack{nfs: specChain(t, json)}
	for _, nf := range s.nfs {
		switch nf := nf.(type) {
		case *mazunat.NAT:
			s.nat = nf
		case *maglev.Maglev:
			s.lb = nf
		case *monitor.Monitor:
			s.mon = nf
		case *ipfilter.Filter:
			s.fw = nf
		case *snort.Snort:
			s.ids = nf
		}
	}
	eng, err := core.NewEngine(s.nfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	s.eng = eng
	return s
}

// send runs one packet and returns its result and the bytes it left as.
func (s *stack) send(t testing.TB, pkt *packet.Packet) (*core.PacketResult, string) {
	t.Helper()
	res, err := s.eng.ProcessPacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.eng.CheckRecords(); err != nil {
		t.Fatal(err)
	}
	return res, fmt.Sprintf("%v %x", res.Verdict, pkt.Data())
}

// answers is every NF-visible answer about one flow.
func (s *stack) answers(fid flow.FID, ft packet.FiveTuple) string {
	out := ""
	c, ok := s.mon.Flow(fid)
	out += fmt.Sprintf("monitor %+v %v; ", c, ok)
	be, ok := s.lb.BackendOf(fid)
	out += fmt.Sprintf("maglev %+v %v; ", be, ok)
	m, ok := s.nat.MappingFor(ft)
	out += fmt.Sprintf("nat %+v %v of %d; ", m, ok, s.nat.Mappings())
	out += fmt.Sprintf("snort flagged %v; words", s.ids.Flagged(fid))
	// The raw words: the filter's cached decision and Snort's assigned
	// rules have no accessor of their own.
	for _, nf := range s.nfs {
		if sf, ok := nf.(core.Stateful); ok {
			out += " " + nf.Name()
			for st, i := sf.FlowStates().Of(fid), 0; i < len(st); i++ {
				out += fmt.Sprintf(" %x", st[i].Load())
			}
		}
	}
	return out
}

// conn is one TCP connection's packets from a fixed inside host.
func connPkt(sport uint16, flags uint8, payload string) *packet.Packet {
	return chain1Pkt(sport, packet.ProtoTCP, flags, payload)
}

// TestMigrationAndRestoreCarryNFState moves a connection, mid-stream,
// between engines whose chains are separate NF objects — once through a
// migration record, once through a checkpoint — and diffs every packet
// and every NF-visible answer against an engine it never left.
func TestMigrationAndRestoreCarryNFState(t *testing.T) {
	move := map[string]func(t *testing.T, from *stack) *stack{
		"migration record": func(t *testing.T, from *stack) *stack {
			to := newStack(t, chain1IDSJSON, core.DefaultOptions())
			fid := from.eng.FlowEntries()[0].FID
			mf, ok := from.eng.ExtractFlow(fid)
			if !ok {
				t.Fatal("flow not tracked on the old owner")
			}
			recs, err := wal.DecodeMigration(wal.EncodeMigration([]wal.MigrationRecord{mf}))
			if err != nil {
				t.Fatal(err)
			}
			to.eng.AdoptFlow(recs[0])
			if n, m := from.mon.Flows(), from.nat.Mappings(); n != 0 || m != 0 {
				t.Errorf("the old owner's NFs still hold the flow: %d monitor flows, %d NAT mappings", n, m)
			}
			if err := from.eng.CheckRecords(); err != nil {
				t.Error(err)
			}
			return to
		},
		"checkpoint": func(t *testing.T, from *stack) *stack {
			cp, err := from.eng.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cp, err = wal.DecodeCheckpoint(cp.Encode()); err != nil {
				t.Fatal(err)
			}
			to := newStack(t, chain1IDSJSON, core.DefaultOptions())
			if err := to.eng.Restore(cp, nil); err != nil {
				t.Fatal(err)
			}
			return to
		},
	}
	for name, mover := range move {
		t.Run(name, func(t *testing.T) {
			ref := newStack(t, chain1IDSJSON, core.DefaultOptions())
			sut := newStack(t, chain1IDSJSON, core.DefaultOptions())
			script := []*packet.Packet{
				connPkt(7001, packet.TCPFlagSYN, ""), connPkt(7001, packet.TCPFlagACK, ""),
				connPkt(7001, packet.TCPFlagACK, "GET /admin ATTACK"),
				connPkt(7001, packet.TCPFlagACK, "steady"),
			}
			var fid flow.FID
			ft, err := script[0].FiveTuple()
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range script {
				frame := append([]byte(nil), p.Data()...)
				r, want := ref.send(t, p)
				_, got := sut.send(t, packet.New(frame))
				if got != want {
					t.Fatalf("packet %d before the move: %s, reference %s", i, got, want)
				}
				fid = r.FID
			}
			scanned := sut.fw.Stats().Scanned
			sut = mover(t, sut)
			if got, want := sut.answers(fid, ft), ref.answers(fid, ft); got != want {
				t.Errorf("after the move the NFs answer\n  %s\nthe reference\n  %s", got, want)
			}
			for i, p := range []*packet.Packet{
				connPkt(7001, packet.TCPFlagACK, "LOGIN after the move"),
				connPkt(7001, packet.TCPFlagACK, "steady"),
				connPkt(7001, packet.TCPFlagACK, "steady"),
			} {
				frame := append([]byte(nil), p.Data()...)
				_, want := ref.send(t, p)
				_, got := sut.send(t, packet.New(frame))
				if got != want {
					t.Errorf("packet %d after the move: %s, reference %s", i, got, want)
				}
				if got, want := sut.answers(fid, ft), ref.answers(fid, ft); got != want {
					t.Errorf("after packet %d the NFs answer\n  %s\nthe reference\n  %s", i, got, want)
				}
			}
			// The filter's decision came with the flow: the new owner's
			// filter never scanned its ACL, the reference's scanned once.
			if got := sut.fw.Stats().Scanned; got != 0 {
				t.Errorf("the adopting filter scanned %d time(s); the flow brought its decision", got)
			}
			if got := ref.fw.Stats().Scanned; got != scanned {
				t.Errorf("the reference filter scanned %d time(s), %d before the move", got, scanned)
			}
			if got, want := fmt.Sprint(sut.ids.Logs()[len(sut.ids.Logs())-1]), fmt.Sprint(ref.ids.Logs()[len(ref.ids.Logs())-1]); got != want {
				t.Errorf("last IDS log entry %s, reference %s", got, want)
			}
			// The connection ends: nothing of it stays anywhere.
			fin := connPkt(7001, packet.TCPFlagFIN|packet.TCPFlagACK, "")
			sut.send(t, fin)
			if n, m := sut.mon.Flows(), sut.nat.Mappings(); n != 0 || m != 0 || sut.eng.FlowLen() != 0 {
				t.Errorf("after the FIN: %d monitor flows, %d NAT mappings, %d tracked flows", n, m, sut.eng.FlowLen())
			}
		})
	}
}

// TestSequentialConnectionsLeaveNoNFState: 10 000 connections, one after
// the other, leave the NFs holding nothing per flow — the Monitor
// included, which used to keep a counter object for every FID it ever
// saw — and the Monitor's totals still count every one of them.
func TestSequentialConnectionsLeaveNoNFState(t *testing.T) {
	sbox := newStack(t, chain1IDSJSON, core.DefaultOptions())
	base := newStack(t, chain1IDSJSON, core.BaselineOptions())
	const conns = 10000
	var last flow.FID
	for c := 0; c < conns; c++ {
		sport := uint16(1024 + c%50000)
		for _, s := range []*stack{sbox, base} {
			for _, p := range []*packet.Packet{
				connPkt(sport, packet.TCPFlagSYN, ""), connPkt(sport, packet.TCPFlagACK, ""),
				connPkt(sport, packet.TCPFlagACK, "data"), connPkt(sport, packet.TCPFlagACK, "data"),
				connPkt(sport, packet.TCPFlagFIN|packet.TCPFlagACK, ""),
			} {
				res, err := s.eng.ProcessPacket(p)
				if err != nil {
					t.Fatal(err)
				}
				last = res.FID
			}
		}
	}
	for name, s := range map[string]*stack{"speedybox": sbox, "baseline": base} {
		if n := s.mon.Flows(); n != 0 {
			t.Errorf("%s: the monitor holds %d flows after every connection ended", name, n)
		}
		if n := s.nat.Mappings(); n != 0 {
			t.Errorf("%s: the NAT holds %d mappings", name, n)
		}
		if _, ok := s.lb.BackendOf(last); ok {
			t.Errorf("%s: the balancer still pins %v", name, last)
		}
		if _, ok := s.mon.Flow(last); ok {
			t.Errorf("%s: the monitor still reports the ended flow %v", name, last)
		}
		pins := 0
		s.lb.FlowStates().Each(func(flow.FID, core.State) { pins++ })
		if pins != 0 {
			t.Errorf("%s: the balancer holds %d pins", name, pins)
		}
		if err := s.eng.CheckRecords(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if got, want := sbox.mon.Totals(), base.mon.Totals(); got != want || got.Packets != 5*conns {
		t.Errorf("monitor totals %+v, baseline chain %+v, want %d packets", got, want, 5*conns)
	}
}

// TestReusedTupleStartsEveryNFEmpty: a SYN on a 5-tuple whose previous
// connection never closed keeps the flow's entry and zeroes what the NFs
// held on it — a fresh NAT port, a fresh scan, per-flow counters from
// one — while the Monitor's totals go on counting both connections.
func TestReusedTupleStartsEveryNFEmpty(t *testing.T) {
	s := newStack(t, chain1IDSJSON, core.DefaultOptions())
	ft, _ := connPkt(7001, 0, "").FiveTuple()
	var fid flow.FID
	for _, p := range []*packet.Packet{
		connPkt(7001, packet.TCPFlagSYN, ""), connPkt(7001, packet.TCPFlagACK, ""),
		connPkt(7001, packet.TCPFlagACK, "ATTACK"), connPkt(7001, packet.TCPFlagACK, "more"),
	} {
		res, _ := s.send(t, p)
		fid = res.FID
	}
	old, _ := s.nat.MappingFor(ft)
	if c, _ := s.mon.Flow(fid); c.Packets != 4 || !s.ids.Flagged(fid) || s.fw.Stats().Scanned != 1 {
		t.Fatalf("first connection: monitor %+v, flagged %v, filter %+v", c, s.ids.Flagged(fid), s.fw.Stats())
	}
	res, _ := s.send(t, connPkt(7001, packet.TCPFlagSYN, ""))
	if res.FID != fid {
		t.Fatalf("the reused tuple got %v, the entry was %v", res.FID, fid)
	}
	if c, _ := s.mon.Flow(fid); c.Packets != 1 {
		t.Errorf("per-flow counters after the reuse: %+v, want the SYN alone", c)
	}
	if got := s.mon.Totals().Packets; got != 5 {
		t.Errorf("totals %d packets, want both connections' 5", got)
	}
	if m, ok := s.nat.MappingFor(ft); !ok || m.OutsidePort == old.OutsidePort || s.nat.Mappings() != 1 {
		t.Errorf("NAT mapping after the reuse: %+v (was %+v), %d held; want one fresh port", m, old, s.nat.Mappings())
	}
	if s.ids.Flagged(fid) {
		t.Error("the new connection inherited the old one's malicious flag")
	}
	if got := s.fw.Stats().Scanned; got != 2 {
		t.Errorf("filter scans %d, want a second for the new connection", got)
	}
}

// TestReconfigureDropsOnlyTheRemovedNFsState: removing an NF takes its
// slot off every flow — the NF told each has ended for it — and leaves
// the other NFs' state where it was; a later NF of the same name starts
// from zero.
func TestReconfigureDropsOnlyTheRemovedNFsState(t *testing.T) {
	s := newStack(t, chain1IDSJSON, core.DefaultOptions())
	const flows = 8
	tuples := make([]packet.FiveTuple, flows)
	fids := make([]flow.FID, flows)
	for f := range fids {
		p := chain1Pkt(uint16(7100+f), packet.ProtoUDP, 0, "first")
		tuples[f], _ = p.FiveTuple()
		res, _ := s.send(t, p)
		s.send(t, chain1Pkt(uint16(7100+f), packet.ProtoUDP, 0, "second"))
		fids[f] = res.FID
	}
	before := make([]string, flows)
	for f, fid := range fids {
		be, _ := s.lb.BackendOf(fid)
		m, _ := s.nat.MappingFor(tuples[f])
		before[f] = fmt.Sprint(be, m)
	}
	totals := s.mon.Totals()
	if err := s.eng.Reconfigure(core.ChainPlan{Op: core.OpRemove, Name: "monitor"}); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if n := s.mon.Flows(); n != 0 {
		t.Errorf("the removed monitor still sees %d flows", n)
	}
	if got := s.mon.Totals(); got != totals {
		t.Errorf("the removed monitor's totals %+v, %+v before: its flows ended for it, they did not vanish", got, totals)
	}
	for f, fid := range fids {
		be, _ := s.lb.BackendOf(fid)
		m, _ := s.nat.MappingFor(tuples[f])
		if got := fmt.Sprint(be, m); got != before[f] {
			t.Errorf("%v: pin and mapping %s after the removal, %s before", fid, got, before[f])
		}
	}
	if s.nat.Mappings() != flows || s.fw.Stats().Scanned != flows {
		t.Errorf("%d NAT mappings, filter %+v; want %d of each, untouched", s.nat.Mappings(), s.fw.Stats(), flows)
	}

	again, err := monitor.New("monitor")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Reconfigure(core.ChainPlan{Op: core.OpInsert, Pos: 2, NF: again}); err != nil {
		t.Fatal(err)
	}
	s.send(t, chain1Pkt(7100, packet.ProtoUDP, 0, "third"))
	if c, ok := again.Flow(fids[0]); !ok || c.Packets != 1 || again.Flows() != 1 {
		t.Errorf("the new monitor: flow %+v %v of %d; want the one packet it saw", c, ok, again.Flows())
	}
	if be, _ := s.lb.BackendOf(fids[0]); fmt.Sprint(be, func() mazunat.Mapping { m, _ := s.nat.MappingFor(tuples[0]); return m }()) != before[0] {
		t.Errorf("%v: the insertion moved the older NFs' state", fids[0])
	}
	if s.fw.Stats().Scanned != flows {
		t.Errorf("filter %+v: the re-recorded flow scanned again", s.fw.Stats())
	}
}

// TestFilterRescansWhenUpstreamRewriteChanges: the filter's cached
// decision is per flow, and is only good for the tuple it was made on. A
// load balancer upstream that fails a flow over to a backend the ACL
// denies changes that tuple: the chain — baseline, and SpeedyBox's slow
// path, which is the same NF code — judges the new one. (The fast path
// goes on serving the filter's recorded forward over the balancer's
// updated rewrite until the flow re-records: an event update upstream of
// a recorded decision is DESIGN §10's known limit (4), as it was before
// the decision moved onto the flow record.)
func TestFilterRescansWhenUpstreamRewriteChanges(t *testing.T) {
	backends := []maglev.Backend{
		{Name: "a", IP: packet.IP4(192, 168, 1, 10), Port: 80},
		{Name: "b", IP: packet.IP4(192, 168, 1, 11), Port: 80},
	}
	build := func(opts core.Options) (*maglev.Maglev, *ipfilter.Filter, *core.Engine) {
		t.Helper()
		lb, err := maglev.New(maglev.Config{Name: "lb", Backends: backends, TableSize: 101})
		if err != nil {
			t.Fatal(err)
		}
		fw, err := ipfilter.New(ipfilter.Config{Name: "fw", Rules: []ipfilter.Rule{
			{Dst: ipfilter.Prefix{Addr: backends[1].IP, Bits: 32}, Deny: true}}})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine([]core.NF{lb, fw}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return lb, fw, eng
	}
	// A source port whose flow the table pins to the allowed backend.
	sport := uint16(0)
	for p := uint16(7000); sport == 0; p++ {
		lb, _, eng := build(core.BaselineOptions())
		res, err := eng.ProcessPacket(connPkt(p, packet.TCPFlagSYN, ""))
		if err != nil {
			t.Fatal(err)
		}
		if be, _ := lb.BackendOf(res.FID); be == backends[0] {
			sport = p
		}
	}
	// Handshake packets never record: on the SpeedyBox engine the whole
	// exchange below runs on its slow path.
	for name, opts := range map[string]core.Options{"baseline": core.BaselineOptions(), "slow path": core.DefaultOptions()} {
		lb, fw, eng := build(opts)
		send := func() core.Verdict {
			t.Helper()
			res, err := eng.ProcessPacket(connPkt(sport, packet.TCPFlagSYN, ""))
			if err != nil {
				t.Fatal(err)
			}
			if res.Path != core.PathSlow {
				t.Fatalf("%s: a SYN took path %v", name, res.Path)
			}
			return res.Verdict
		}
		if v := send(); v != core.VerdictForward {
			t.Fatalf("%s: verdict to the allowed backend: %v", name, v)
		}
		if err := lb.FailBackend(0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if v := send(); v != core.VerdictDrop {
				t.Errorf("%s: packet %d after the failover to the denied backend: %v", name, i, v)
			}
		}
		// One scan a tuple, however many packets (a SYN on a tracked tuple
		// resets the flow: each packet here is a fresh connection's first).
		if st := fw.Stats(); st.Allowed != 1 || st.Denied != st.Scanned-1 {
			t.Errorf("%s: filter stats %+v", name, st)
		}
	}
}

// TestNFViewsUnderTraffic hammers the cross-goroutine side of per-flow
// state under -race: a worker drives one flow's packets (slow path, then
// the recorded state function on the fast path) while a reader sums the
// Monitor's totals, reads that flow's counters and pin, and a third
// goroutine sets up and tears down other flows — the teardown idle
// expiry runs: it folds counters into the Monitor's closed aggregate
// and hands ports back to the NAT while the reader walks.
func TestNFViewsUnderTraffic(t *testing.T) {
	s := newStack(t, chain1IDSJSON, core.DefaultOptions())
	first, err := s.eng.ProcessPacket(chain1Pkt(7500, packet.ProtoUDP, 0, "first"))
	if err != nil {
		t.Fatal(err)
	}
	fid := first.FID
	const packets = 3000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		var seen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if c, ok := s.mon.Flow(fid); !ok || c.Packets < seen {
				t.Errorf("the flow's counters went from %d packets to %+v (%v)", seen, c, ok)
				return
			} else {
				seen = c.Packets
			}
			if tot := s.mon.Totals(); tot.Packets < seen {
				t.Errorf("totals %+v below one flow's %d packets", tot, seen)
				return
			}
			if _, ok := s.lb.BackendOf(fid); !ok {
				t.Error("the flow lost its pin")
				return
			}
			s.nat.Mappings()
		}
	}()
	go func() { // churn: other flows come, run on both paths and go
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var other flow.FID
			for _, payload := range []string{"first", "second"} {
				res, err := s.eng.ProcessPacket(chain1Pkt(uint16(8000+i%512), packet.ProtoUDP, 0, payload))
				if err != nil {
					t.Error(err)
					return
				}
				other = res.FID
			}
			s.eng.TeardownFlow(other)
		}
	}()
	for i := 0; i < packets; i++ {
		if _, err := s.eng.ProcessPacket(chain1Pkt(7500, packet.ProtoUDP, 0, "steady")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if c, ok := s.mon.Flow(fid); !ok || c.Packets != packets+1 {
		t.Errorf("the hammered flow's counters: %+v %v, want %d packets", c, ok, packets+1)
	}
	if err := s.eng.CheckRecords(); err != nil {
		t.Error(err)
	}
}
