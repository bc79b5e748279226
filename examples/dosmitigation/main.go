// DoS mitigation: the paper's DoS Prevention NF (Figure 3), end to
// end. The NF counts TCP SYN flags per flow — on the slow path by
// running its declared count, on the fast path by the flow's rule. An
// attacker retransmits its SYN inside one handshake: every SYN is a
// handshake packet, served by the chain, and from the sixth on (the
// threshold is 5) the defender drops it. The flow's first data packet
// is its initial packet, whose traversal records the defender's drop,
// so its rule drops every later packet on the fast path while
// well-behaved flows keep flowing. The drop is recorded on the slow
// path, so no event fires: the event that flips a live flow's rule to
// drop mid-connection, Figure 3's other half, is not shown here.
package main

import (
	"fmt"
	"log"

	speedybox "github.com/fastpathnfv/speedybox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	defender, err := speedybox.NewDoSDefender(speedybox.DoSDefenderConfig{
		Name:         "dos-prevention",
		SYNThreshold: 5,
	})
	if err != nil {
		return err
	}
	mon, err := speedybox.NewMonitor("monitor")
	if err != nil {
		return err
	}
	p, err := speedybox.NewBESS([]speedybox.NF{defender, mon}, speedybox.DefaultOptions())
	if err != nil {
		return err
	}
	defer p.Close()

	mk := func(srcPort uint16, syn bool, seq int) (*speedybox.Packet, error) {
		flags, payload := uint8(0x10), []byte("x") // ACK with data
		if syn {
			flags, payload = 0x02, nil
		}
		return speedybox.BuildPacket(speedybox.PacketSpec{
			SrcIP: [4]byte{203, 0, 113, 66}, DstIP: [4]byte{10, 0, 0, 80},
			SrcPort: srcPort, DstPort: 80, Proto: 6,
			TCPFlags: flags, Seq: uint32(seq),
			Payload: payload,
		})
	}

	// The attacker: eight SYN retransmits, then data.
	fmt.Println("attacker flow (SYN flood, threshold 5):")
	for i := 1; i <= 14; i++ {
		syn := i <= 8
		pkt, err := mk(31337, syn, i)
		if err != nil {
			return err
		}
		m, err := p.Process(pkt)
		if err != nil {
			return err
		}
		status := "forwarded"
		if pkt.Dropped() {
			status = "DROPPED"
		}
		fmt.Printf("  packet %2d (%s): %s on the %v path\n", i, flagName(syn), status, m.Result.Path)
		if want := i > 5; pkt.Dropped() != want {
			return fmt.Errorf("attacker packet %d: dropped %v, want %v", i, pkt.Dropped(), want)
		}
	}
	// Every attacker packet from the sixth on is a drop, so each one
	// served on the fast path is dropped by the recorded rule.
	st := p.Engine().Stats()
	if st.FastPath == 0 {
		return fmt.Errorf("no attacker packet was dropped on the fast path")
	}

	// A legitimate flow is untouched.
	fmt.Println("\nlegitimate flow:")
	for i := 1; i <= 4; i++ {
		pkt, err := mk(40000, false, i)
		if err != nil {
			return err
		}
		if _, err := p.Process(pkt); err != nil {
			return err
		}
		if pkt.Dropped() {
			return fmt.Errorf("legitimate packet %d dropped", i)
		}
	}
	fmt.Println("  all forwarded")
	fmt.Printf("\nattacker packets dropped on the fast path: %d, events fired: %d\n", st.FastPath, st.EventsFired)
	return nil
}

func flagName(syn bool) string {
	if syn {
		return "SYN"
	}
	return "ACK"
}
