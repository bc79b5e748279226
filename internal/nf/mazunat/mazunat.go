// Package mazunat implements the MazuNAT NF (paper §VI-C): a NAT
// closely resembling the Click mazu-nat configuration, translating the
// IP and port of flows. Outbound flows from the internal prefix are
// source-NATed to the external address with an allocated port; inbound
// packets to mapped external ports are translated back. As in the
// paper, ICMP handling is omitted.
package mazunat

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Config configures the NAT.
type Config struct {
	// Name is the NF instance name.
	Name string
	// InternalPrefix and InternalBits define the inside network
	// (e.g. 10.0.0.0/8).
	InternalPrefix [4]byte
	InternalBits   int
	// ExternalIP is the NAT's public address.
	ExternalIP [4]byte
	// PortBase is the first external port to allocate; allocation
	// proceeds upward to 65535. Defaults to 20000.
	PortBase uint16
}

// Mapping is one active translation.
type Mapping struct {
	// Inside is the original (internal) source IP and port.
	InsideIP   [4]byte
	InsidePort uint16
	// OutsidePort is the allocated external port.
	OutsidePort uint16
}

// ErrPortsExhausted reports that no external ports remain.
var ErrPortsExhausted = errors.New("mazunat: external ports exhausted")

// NAT is the network address translator NF.
type NAT struct {
	name     string
	inPrefix [4]byte
	inBits   int
	extIP    [4]byte
	portBase uint16

	mu       sync.Mutex
	nextPort uint32
	byTuple  map[packet.FiveTuple]Mapping
	byPort   map[uint16]Mapping
	byFID    map[flow.FID]packet.FiveTuple
}

// New builds a NAT.
func New(cfg Config) (*NAT, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("mazunat: empty name")
	}
	if cfg.InternalBits <= 0 || cfg.InternalBits > 32 {
		return nil, fmt.Errorf("mazunat: internal prefix bits %d out of range", cfg.InternalBits)
	}
	base := cfg.PortBase
	if base == 0 {
		base = 20000
	}
	return &NAT{
		name:     cfg.Name,
		inPrefix: cfg.InternalPrefix,
		inBits:   cfg.InternalBits,
		extIP:    cfg.ExternalIP,
		portBase: base,
		nextPort: uint32(base),
		byTuple:  make(map[packet.FiveTuple]Mapping),
		byPort:   make(map[uint16]Mapping),
		byFID:    make(map[flow.FID]packet.FiveTuple),
	}, nil
}

var _ core.NF = (*NAT)(nil)

// Name implements core.NF.
func (n *NAT) Name() string { return n.name }

var _ core.FlowCloser = (*NAT)(nil)

// FlowClosed implements core.FlowCloser: when the outbound flow closes,
// its external (IP, port) mapping is released for reuse.
func (n *NAT) FlowClosed(fid flow.FID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ft, ok := n.byFID[fid]
	if !ok {
		return
	}
	delete(n.byFID, fid)
	if m, ok := n.byTuple[ft]; ok {
		delete(n.byTuple, ft)
		delete(n.byPort, m.OutsidePort)
	}
}

var _ core.Teardowner = (*NAT)(nil)

// Teardown implements core.Teardowner: the NAT has left the chain, so
// every remaining translation is released at once.
func (n *NAT) Teardown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.byTuple = make(map[packet.FiveTuple]Mapping)
	n.byPort = make(map[uint16]Mapping)
	n.byFID = make(map[flow.FID]packet.FiveTuple)
}

// natState is the gob image of the NAT's mutable state.
type natState struct {
	NextPort uint32
	ByTuple  map[packet.FiveTuple]Mapping
	ByFID    map[flow.FID]packet.FiveTuple
}

var _ core.Snapshotter = (*NAT)(nil)

// SnapshotState implements core.Snapshotter: the translation tables
// and the port allocation cursor. byPort is derivable from byTuple and
// is rebuilt on restore.
func (n *NAT) SnapshotState() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := natState{
		NextPort: n.nextPort,
		ByTuple:  make(map[packet.FiveTuple]Mapping, len(n.byTuple)),
		ByFID:    make(map[flow.FID]packet.FiveTuple, len(n.byFID)),
	}
	for ft, m := range n.byTuple {
		st.ByTuple[ft] = m
	}
	for fid, ft := range n.byFID {
		st.ByFID[fid] = ft
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("mazunat: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all translations.
func (n *NAT) RestoreState(data []byte) error {
	var st natState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("mazunat: restore: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextPort = st.NextPort
	if n.nextPort < uint32(n.portBase) || n.nextPort > 65535 {
		n.nextPort = uint32(n.portBase)
	}
	n.byTuple = st.ByTuple
	if n.byTuple == nil {
		n.byTuple = make(map[packet.FiveTuple]Mapping)
	}
	n.byFID = st.ByFID
	if n.byFID == nil {
		n.byFID = make(map[flow.FID]packet.FiveTuple)
	}
	n.byPort = make(map[uint16]Mapping, len(n.byTuple))
	for _, m := range n.byTuple {
		n.byPort[m.OutsidePort] = m
	}
	return nil
}

// Mappings returns the number of active translations.
func (n *NAT) Mappings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.byTuple)
}

// MappingFor returns the translation for an outbound tuple.
func (n *NAT) MappingFor(ft packet.FiveTuple) (Mapping, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.byTuple[ft]
	return m, ok
}

func (n *NAT) isInternal(ip [4]byte) bool {
	var a, b uint32
	for i := 0; i < 4; i++ {
		a = a<<8 | uint32(n.inPrefix[i])
		b = b<<8 | uint32(ip[i])
	}
	shift := uint(32 - n.inBits)
	return a>>shift == b>>shift
}

// translate returns (mapping, isNew, err) for an outbound tuple and
// indexes the mapping by FID for FlowClosed cleanup.
func (n *NAT) translate(fid flow.FID, ft packet.FiveTuple) (Mapping, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.byFID[fid] = ft
	if m, ok := n.byTuple[ft]; ok {
		return m, false, nil
	}
	for tries := 0; tries <= 65535-int(n.portBase); tries++ {
		port := uint16(n.nextPort)
		if n.nextPort++; n.nextPort > 65535 {
			n.nextPort = uint32(n.portBase)
		}
		if _, taken := n.byPort[port]; taken {
			continue
		}
		m := Mapping{InsideIP: ft.SrcIP, InsidePort: ft.SrcPort, OutsidePort: port}
		n.byTuple[ft] = m
		n.byPort[port] = m
		return m, true, nil
	}
	return Mapping{}, false, ErrPortsExhausted
}

// Release frees the mapping of a closed flow.
func (n *NAT) Release(ft packet.FiveTuple) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.byTuple[ft]; ok {
		delete(n.byTuple, ft)
		delete(n.byPort, m.OutsidePort)
	}
}

// Process implements core.NF. MazuNAT sets each flow a modify action
// (paper §VI-C).
func (n *NAT) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("mazunat %s: %w", n.name, err)
	}

	switch {
	case n.isInternal(ft.SrcIP):
		// Outbound: source NAT.
		m, isNew, err := n.translate(ctx.FID, ft)
		if err != nil {
			return 0, err
		}
		if isNew {
			ctx.Charge(ctx.Model.NATAllocate)
		} else {
			ctx.Charge(ctx.Model.ConnTrackLookup)
		}
		if err := pkt.Set(packet.FieldSrcIP, n.extIP[:]); err != nil {
			return 0, err
		}
		if err := pkt.Set(packet.FieldSrcPort, packet.PutUint16(m.OutsidePort)); err != nil {
			return 0, err
		}
		ctx.Charge(2*ctx.Model.ModifyField + ctx.Model.ChecksumUpdate)
		if !ctx.Recording() {
			break
		}
		if err := ctx.AddHeaderAction(mat.Modify(packet.FieldSrcIP, n.extIP[:])); err != nil {
			return 0, err
		}
		if err := ctx.AddHeaderAction(mat.Modify(packet.FieldSrcPort, packet.PutUint16(m.OutsidePort))); err != nil {
			return 0, err
		}
	case ft.DstIP == n.extIP:
		// Inbound: reverse translation if a mapping exists.
		n.mu.Lock()
		m, ok := n.byPort[ft.DstPort]
		n.mu.Unlock()
		ctx.Charge(ctx.Model.ConnTrackLookup)
		if !ok {
			// Unsolicited inbound traffic is dropped, as mazu-nat does.
			if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
				return 0, err
			}
			ctx.Charge(ctx.Model.DropAction)
			return core.VerdictDrop, nil
		}
		if err := pkt.Set(packet.FieldDstIP, m.InsideIP[:]); err != nil {
			return 0, err
		}
		if err := pkt.Set(packet.FieldDstPort, packet.PutUint16(m.InsidePort)); err != nil {
			return 0, err
		}
		ctx.Charge(2*ctx.Model.ModifyField + ctx.Model.ChecksumUpdate)
		if !ctx.Recording() {
			break
		}
		if err := ctx.AddHeaderAction(mat.Modify(packet.FieldDstIP, m.InsideIP[:])); err != nil {
			return 0, err
		}
		if err := ctx.AddHeaderAction(mat.Modify(packet.FieldDstPort, packet.PutUint16(m.InsidePort))); err != nil {
			return 0, err
		}
	default:
		// Transit traffic passes untouched.
		if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
			return 0, err
		}
	}
	return core.VerdictForward, nil
}
