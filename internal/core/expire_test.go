package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/fastpathnfv/speedybox/internal/classifier"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

func udpPkt(t *testing.T, sport uint16, payload string) *packet.Packet {
	t.Helper()
	return packet.MustBuild(packet.Spec{
		SrcIP: packet.IP4(10, 0, 0, 1), DstIP: packet.IP4(10, 0, 0, 2),
		SrcPort: sport, DstPort: 53, Proto: packet.ProtoUDP,
		Payload: []byte(payload),
	})
}

// ExpireIdle is a sweep: it reaps the flows whose seen epoch ended
// idleFor ticks ago and opens a new epoch. The scenarios below are sweep,
// traffic, sweep: the first sweep ends the epoch the set-up packets
// stamped, the second measures idleness from there.

func TestExpireIdleRemovesStaleUDPFlows(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Flow A: two packets, then goes quiet.
	for i := 0; i < 2; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 1111, "a")); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Global().Len() != 1 {
		t.Fatalf("rules = %d", eng.Global().Len())
	}
	// Flow A's epoch ends here, at tick 2: nothing is idle yet.
	if n := eng.ExpireIdle(10); n != 0 {
		t.Fatalf("the first sweep expired %d flows, want 0", n)
	}
	// Flow B keeps the clock ticking: 20 packets.
	for i := 0; i < 20; i++ {
		if _, err := eng.ProcessPacket(udpPkt(t, 2222, "b")); err != nil {
			t.Fatal(err)
		}
	}
	// Expire anything idle for 10 ticks: only flow A.
	if n := eng.ExpireIdle(10); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if eng.Global().Len() != 1 {
		t.Errorf("rules after expiry = %d, want flow B's only", eng.Global().Len())
	}
	if n := eng.FlowLen(); n != 1 {
		t.Errorf("flows after expiry = %d, want flow B's only", n)
	}
	// Flow A's next packet is treated as initial again and works.
	res, err := eng.ProcessPacket(udpPkt(t, 1111, "back"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != classifier.KindInitial {
		t.Errorf("revived flow kind = %v, want initial", res.Kind)
	}
	if eng.Global().Len() != 2 {
		t.Errorf("rules after revival = %d", eng.Global().Len())
	}
}

func TestExpireIdleKeepsActiveFlows(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < 15; i++ {
			if _, err := eng.ProcessPacket(udpPkt(t, 1111, "x")); err != nil {
				t.Fatal(err)
			}
		}
		if n := eng.ExpireIdle(10); n != 0 {
			t.Errorf("sweep %d expired %d active flows", sweep, n)
		}
	}
	// A window longer than the clock has run expires nothing either.
	if n := eng.ExpireIdle(1000); n != 0 {
		t.Errorf("oversized window expired %d flows", n)
	}
}

func TestExpireIdleOnEmptyEngine(t *testing.T) {
	mod := &fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}
	eng, err := NewEngine([]NF{mod}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 2; sweep++ {
		if n := eng.ExpireIdle(0); n != 0 {
			t.Errorf("expired %d on empty engine", n)
		}
	}
}

// TestExpireIdleAcrossVectors: four flows served vector after vector on
// one Batch, two packets a flow a vector (the second served its first's
// handle), across six sweeps, while another worker's flow moves the
// clock. A flow is never expired while it sends, and each is expired by
// the second sweep after its last packet: every fast-path packet renews
// the stamp in its epoch.
func TestExpireIdleAcrossVectors(t *testing.T) {
	eng := newBatchTestEngine(t, DefaultOptions())
	b := NewBatch(4)
	const flows, idleFor = 4, 10
	fids := make([]flow.FID, flows)
	for round := 0; round < flows+2; round++ {
		// Flow k sends in rounds 0 to k+1.
		for v := 0; v < 3; v++ {
			var vec []*packet.Packet
			for k := max(round-1, 0); k < flows; k++ {
				vec = append(vec, udpPkt(t, uint16(9601+k), "served"), udpPkt(t, uint16(9601+k), "served"))
			}
			rs, err := eng.ProcessBatch(vec, b)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rs {
				fids[max(round-1, 0)+i/2] = r.FID
			}
		}
		for i := 0; i < 2*idleFor; i++ {
			if _, err := eng.ProcessPacket(udpPkt(t, 9700, "clock")); err != nil {
				t.Fatal(err)
			}
		}
		n := eng.ExpireIdle(idleFor)
		for k := 0; k < flows; k++ {
			_, tracked := eng.class.Flows().LookupFID(fids[k])
			// Flow k's last packet was in round k+1; the sweep after that
			// round ended its epoch, the next one expires it.
			if want := round < k+2; tracked != want {
				t.Fatalf("after sweep %d: flow %d tracked=%v, want %v", round, k, tracked, want)
			}
		}
		if want := min(max(round-1, 0), 1); n != want {
			t.Fatalf("sweep %d expired %d flows, want %d", round, n, want)
		}
	}
}

// heldCounter is an admission policy that admits everything and counts
// what each tenant holds, so a test can see a budget a flow took with it.
type heldCounter struct {
	mu            sync.Mutex
	rules, events map[int32]int
}

func newHeldCounter() *heldCounter {
	return &heldCounter{rules: map[int32]int{}, events: map[int32]int{}}
}

func (c *heldCounter) AdmitRule(tenant int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[tenant]++
	return true
}

func (c *heldCounter) ReleaseRule(tenant int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules[tenant]--
}

func (c *heldCounter) AdmitEvent(tenant int32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events[tenant]++
	return true
}

func (c *heldCounter) ReleaseEvents(tenant int32, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events[tenant] -= n
}

// TestSetUpRacesExpiry hammers flow set-ups — recording, event
// registrations and rule installs, each charged to the packet's tenant —
// against ExpireIdle tearing the same flows down. Whatever the
// interleaving, a budget is either refunded by the teardown that unlinks
// the flow or never charged, because a charge goes through the flow's
// handle and needs its entry linked: once every flow is gone, every
// tenant holds nothing. Run under -race.
func TestSetUpRacesExpiry(t *testing.T) {
	held := newHeldCounter()
	opts := DefaultOptions()
	opts.Admission = held
	eng, err := NewEngine([]NF{&fakeModifier{name: "nat", dip: [4]byte{9, 9, 9, 9}}, &fakeEventNF{name: "lb"}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Workers set flows up until the expirer has torn enough of them
	// down under them (or a round cap is reached).
	const workers, flows, maxRounds, enough = 2, 64, 5000, 2000
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch(8)
			vec := make([]*packet.Packet, 8)
			for r := 0; r < maxRounds && !stop.Load(); r++ {
				for f := 0; f < flows; f += len(vec) {
					for i := range vec {
						port := uint16(20000 + w*flows + f + i)
						vec[i] = udpPkt(t, port, "set-up")
						vec[i].Meta.Tenant = int32(1 + port%3)
					}
					if _, err := eng.ProcessBatch(vec, b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	expired := 0
	for running := true; running; {
		select {
		case <-finished:
			running = false
		default:
		}
		if expired += eng.ExpireIdle(2); expired >= enough {
			stop.Store(true)
		}
	}
	for _, en := range eng.FlowEntries() {
		eng.TeardownFlow(en.FID)
	}
	if expired == 0 {
		t.Fatal("nothing expired: the hammer raced nothing")
	}
	for tenant, n := range held.rules {
		if n != 0 || held.events[tenant] != 0 {
			t.Errorf("tenant %d holds %d rule(s) and %d event(s) with no flow left", tenant, n, held.events[tenant])
		}
	}
	if err := eng.CheckRecords(); err != nil {
		t.Error(err)
	}
	if n := eng.Global().Len(); n != 0 {
		t.Errorf("%d rules outlived their flows", n)
	}
	t.Logf("%d flows expired under set-up", expired)
}
