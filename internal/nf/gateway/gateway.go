// Package gateway implements a conferencing/media gateway NF — the
// remaining category from the paper's §IV-A survey of widely-deployed
// enterprise NFs ("Gateways (for conferencing/media/voice)"). The
// gateway classifies flows into service classes by destination port,
// marks the DSCP field accordingly (expedited forwarding for voice,
// assured forwarding for video), rewrites the next-hop MAC, and
// decrements the TTL — three Modify actions per packet that the Global
// MAT folds into one consolidated rewrite.
package gateway

import (
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Class is a gateway service class.
type Class int

// Service classes. Enum starts at one.
const (
	// ClassBestEffort is unmarked traffic (DSCP 0).
	ClassBestEffort Class = iota + 1
	// ClassVoice is marked EF (DSCP 46).
	ClassVoice
	// ClassVideo is marked AF41 (DSCP 34).
	ClassVideo
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassBestEffort:
		return "best-effort"
	case ClassVoice:
		return "voice"
	case ClassVideo:
		return "video"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// dscp returns the class's DSCP value shifted into the TOS byte.
func (c Class) dscp() byte {
	switch c {
	case ClassVoice:
		return 46 << 2 // EF
	case ClassVideo:
		return 34 << 2 // AF41
	default:
		return 0
	}
}

// Config configures a Gateway.
type Config struct {
	// Name is the NF instance name.
	Name string
	// NextHopMAC is written into the destination MAC of every packet.
	NextHopMAC [6]byte
	// VoicePorts and VideoPorts classify flows by destination port.
	VoicePorts []uint16
	VideoPorts []uint16
}

// Gateway is the media gateway NF. A flow's service class is one word of
// per-flow state on its flow record (zero: not yet classified); the rest
// is configuration.
type Gateway struct {
	name    string
	nextHop [6]byte
	voice   map[uint16]bool
	video   map[uint16]bool
	flows   core.FlowStates
}

// New builds a Gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("gateway: empty name")
	}
	if cfg.NextHopMAC == ([6]byte{}) {
		return nil, fmt.Errorf("gateway: zero next-hop MAC")
	}
	g := &Gateway{
		name:    cfg.Name,
		nextHop: cfg.NextHopMAC,
		voice:   make(map[uint16]bool, len(cfg.VoicePorts)),
		video:   make(map[uint16]bool, len(cfg.VideoPorts)),
	}
	g.flows.Words = 1
	for _, p := range cfg.VoicePorts {
		g.voice[p] = true
	}
	for _, p := range cfg.VideoPorts {
		g.video[p] = true
	}
	return g, nil
}

var _ core.NF = (*Gateway)(nil)

// Name implements core.NF.
func (g *Gateway) Name() string { return g.name }

var _ core.Stateful = (*Gateway)(nil)

// FlowStates implements core.Stateful.
func (g *Gateway) FlowStates() *core.FlowStates { return &g.flows }

// ClassOf returns the service class assigned to a live flow.
func (g *Gateway) ClassOf(fid flow.FID) (Class, bool) {
	st := g.flows.Of(fid)
	if st == nil {
		return 0, false
	}
	return Class(st[0].Load()), true
}

// classify assigns (or reuses) the flow's class.
func (g *Gateway) classify(st core.State, dport uint16) Class {
	if c := Class(st[0].Load()); c != 0 {
		return c
	}
	c := ClassBestEffort
	switch {
	case g.voice[dport]:
		c = ClassVoice
	case g.video[dport]:
		c = ClassVideo
	}
	st[0].Store(uint64(c))
	return c
}

// Process implements core.NF: classify, mark DSCP, rewrite the
// next-hop MAC and decrement the TTL — all recorded as Modify actions
// the consolidation merges.
func (g *Gateway) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("gateway %s: %w", g.name, err)
	}
	class := g.classify(ctx.FlowState(&g.flows), ft.DstPort)

	// TTL is per-packet state in general, but within one chain position
	// every packet of the flow arrives with the same TTL, so recording
	// the decremented value as a Modify is exact — the paper makes the
	// same observation when it defers "remaining fields ... such as
	// checksum, TTL" to the end of consolidation (§V-B).
	if err := ctx.AddModify(pkt, packet.FieldTTL, []byte{max(pkt.TTL(), 1) - 1}); err != nil {
		return 0, err
	}
	if err := ctx.AddModify(pkt, packet.FieldDSCP, []byte{class.dscp()}); err != nil {
		return 0, err
	}
	return core.VerdictForward, ctx.AddModify(pkt, packet.FieldDstMAC, g.nextHop[:])
}
