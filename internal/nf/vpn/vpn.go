// Package vpn implements a VPN gateway NF exercising the Encap and
// Decap header actions (paper §IV-A1: "VPNs add an Authentication
// Header (AH) for each packet before forwarding (encap), and remove
// the AH when the other end receives the packet (decap)").
//
// An encap-mode gateway and a decap-mode gateway placed in one chain
// demonstrate the §V-B stack elimination: the matched pair cancels and
// the consolidated fast path touches no headers at all.
package vpn

import (
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Mode selects the gateway direction.
type Mode int

// Gateway modes. Enum starts at one.
const (
	// ModeEncap adds an AH to every packet.
	ModeEncap Mode = iota + 1
	// ModeDecap removes the outermost AH.
	ModeDecap
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeEncap:
		return "encap"
	case ModeDecap:
		return "decap"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config configures a Gateway.
type Config struct {
	// Name is the NF instance name.
	Name string
	// Mode selects encapsulation or decapsulation.
	Mode Mode
	// SPIBase seeds per-flow SPI assignment in encap mode.
	SPIBase uint32
}

// Gateway is the VPN NF. In encap mode each flow gets a stable SPI;
// the AH sequence number is fixed per flow — a consolidation-friendly
// simplification of AH anti-replay counters, documented in DESIGN.md.
//
// A flow's SPI is one word of per-flow state on its flow record (the SPI
// with a present bit above it); the allocation counter is what flows
// share.
type Gateway struct {
	name    string
	mode    Mode
	spiBase uint32
	flows   core.FlowStates
	next    atomic.Uint32
}

// spiPresent marks a flow's state word as holding an SPI.
const spiPresent = 1 << 32

// New builds a Gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("vpn: empty name")
	}
	if cfg.Mode != ModeEncap && cfg.Mode != ModeDecap {
		return nil, fmt.Errorf("vpn: invalid mode %d", int(cfg.Mode))
	}
	g := &Gateway{name: cfg.Name, mode: cfg.Mode, spiBase: cfg.SPIBase}
	if g.mode == ModeEncap {
		g.flows.Words = 1
	}
	return g, nil
}

var _ core.NF = (*Gateway)(nil)

// Name implements core.NF.
func (g *Gateway) Name() string { return g.name }

var _ core.Stateful = (*Gateway)(nil)

// FlowStates implements core.Stateful.
func (g *Gateway) FlowStates() *core.FlowStates { return &g.flows }

// Mode returns the gateway direction.
func (g *Gateway) Mode() Mode { return g.mode }

// spiFor allocates or returns the flow's SPI.
func (g *Gateway) spiFor(st core.State) uint32 {
	if w := st[0].Load(); w&spiPresent != 0 {
		return uint32(w)
	}
	spi := g.spiBase + g.next.Add(1)
	st[0].Store(uint64(spi) | spiPresent)
	return spi
}

// Process implements core.NF.
func (g *Gateway) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	switch g.mode {
	case ModeEncap:
		spi := g.spiFor(ctx.FlowState(&g.flows))
		hdr := packet.ExtraHeader{Type: packet.HeaderAH, SPI: spi}
		if err := pkt.Encap(hdr); err != nil {
			return 0, fmt.Errorf("vpn %s: %w", g.name, err)
		}
		ctx.Charge(ctx.Model.EncapHeader + ctx.Model.ChecksumUpdate)
		if err := ctx.AddHeaderAction(mat.Encap(hdr)); err != nil {
			return 0, err
		}
	case ModeDecap:
		if err := pkt.Decap(packet.HeaderAH); err != nil {
			return 0, fmt.Errorf("vpn %s: %w", g.name, err)
		}
		ctx.Charge(ctx.Model.DecapHeader + ctx.Model.ChecksumUpdate)
		if err := ctx.AddHeaderAction(mat.Decap(packet.HeaderAH)); err != nil {
			return 0, err
		}
	}
	return core.VerdictForward, nil
}
