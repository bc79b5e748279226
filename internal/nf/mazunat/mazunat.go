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
	"math/bits"
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

// NAT is the network address translator NF. A flow's translation is
// three words of per-flow state on its flow record: the outbound tuple it
// was made for (packet.FiveTuple.Key's two words) and the allocated port
// with a present bit. What the NAT keeps itself is what flows share: the
// allocation cursor and the port pool, which indexes the live
// translations by external port for the inbound direction — it follows
// the flows' state as it arrives and leaves.
type NAT struct {
	name     string
	inPrefix [4]byte
	inBits   int
	extIP    [4]byte
	portBase uint16
	flows    core.FlowStates

	mu       sync.Mutex
	nextPort uint32
	pool     *portPool
}

// portPool is the live translations by external port: an occupancy
// bitmap an allocation scans a word at a time from the cursor, and the
// translation held at each occupied port, in pages of a bitmap word's 64
// ports allocated when a port of theirs is first taken.
type portPool struct {
	used    [65536 / 64]uint64
	mapping [65536 / 64]*[64]Mapping
	live    int
}

// take enters m at its port, replacing what the port held.
func (p *portPool) take(m Mapping) {
	w, bit := m.OutsidePort>>6, uint64(1)<<(m.OutsidePort&63)
	if p.used[w]&bit == 0 {
		p.used[w] |= bit
		p.live++
	}
	if p.mapping[w] == nil {
		p.mapping[w] = new([64]Mapping)
	}
	p.mapping[w][m.OutsidePort&63] = m
}

// free releases a port.
func (p *portPool) free(port uint16) {
	w, bit := port>>6, uint64(1)<<(port&63)
	if p.used[w]&bit != 0 {
		p.used[w] &^= bit
		p.live--
	}
}

// lookup returns the translation at an occupied port.
func (p *portPool) lookup(port uint16) (Mapping, bool) {
	if p.used[port>>6]&(1<<(port&63)) == 0 {
		return Mapping{}, false
	}
	return p.mapping[port>>6][port&63], true
}

// firstFree returns the lowest unoccupied port in [lo, hi].
func (p *portPool) firstFree(lo, hi uint32) (uint32, bool) {
	for w := lo >> 6; w <= hi>>6; w++ {
		free := ^p.used[w]
		if w == lo>>6 {
			free &= ^uint64(0) << (lo & 63)
		}
		if w == hi>>6 {
			free &= ^uint64(0) >> (63 - hi&63)
		}
		if free != 0 {
			return w<<6 | uint32(bits.TrailingZeros64(free)), true
		}
	}
	return 0, false
}

// portPresent marks word 2 of a flow's state as holding a port.
const portPresent = 1 << 16

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
	n := &NAT{
		name:     cfg.Name,
		inPrefix: cfg.InternalPrefix,
		inBits:   cfg.InternalBits,
		extIP:    cfg.ExternalIP,
		portBase: base,
		nextPort: uint32(base),
		pool:     &portPool{},
	}
	n.flows.Words = 3
	n.flows.Arrive = n.arrived
	n.flows.Leave = n.left
	return n, nil
}

var _ core.Stateful = (*NAT)(nil)

// Name implements core.NF.
func (n *NAT) Name() string { return n.name }

// FlowStates implements core.Stateful.
func (n *NAT) FlowStates() *core.FlowStates { return &n.flows }

// mappingOf reads a flow's translation off its state.
func mappingOf(st core.State) (packet.FiveTuple, Mapping, bool) {
	w := st[2].Load()
	if w&portPresent == 0 {
		return packet.FiveTuple{}, Mapping{}, false
	}
	ft := packet.KeyTuple(st[0].Load(), st[1].Load())
	return ft, Mapping{InsideIP: ft.SrcIP, InsidePort: ft.SrcPort, OutsidePort: uint16(w)}, true
}

// arrived indexes a translation that came with a migrating or restored
// flow; left releases the external port of a flow that ended or went:
// the pool holds exactly the live flows' ports.
func (n *NAT) arrived(st core.State) {
	if _, m, ok := mappingOf(st); ok {
		n.mu.Lock()
		n.pool.take(m)
		n.mu.Unlock()
	}
}

func (n *NAT) left(st core.State, _ bool) {
	if _, m, ok := mappingOf(st); ok {
		n.mu.Lock()
		n.pool.free(m.OutsidePort)
		n.mu.Unlock()
	}
}

var _ core.Snapshotter = (*NAT)(nil)

// SnapshotState implements core.Snapshotter: the port allocation cursor.
// The translations travel on the flow records, and the pool is rebuilt
// from them as they arrive.
func (n *NAT) SnapshotState() ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n.nextPort); err != nil {
		return nil, fmt.Errorf("mazunat: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter.
func (n *NAT) RestoreState(data []byte) error {
	var next uint32
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&next); err != nil {
		return fmt.Errorf("mazunat: restore: %w", err)
	}
	if next < uint32(n.portBase) || next > 65535 {
		next = uint32(n.portBase)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextPort = next
	return nil
}

// Mappings returns the number of active translations.
func (n *NAT) Mappings() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool.live
}

// MappingFor returns the translation a live flow holds for an outbound
// tuple.
func (n *NAT) MappingFor(ft packet.FiveTuple) (m Mapping, ok bool) {
	n.flows.Each(func(_ flow.FID, st core.State) {
		if have, hm, used := mappingOf(st); used && have == ft {
			m, ok = hm, true
		}
	})
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

// translate returns (mapping, isNew, err) for an outbound tuple: the
// flow's own if its state holds one made for this tuple, else a freshly
// allocated port, which the state then holds.
func (n *NAT) translate(st core.State, ft packet.FiveTuple) (Mapping, bool, error) {
	if have, m, ok := mappingOf(st); ok {
		if have == ft {
			return m, false, nil
		}
		// The flow shows a new tuple (an upstream rewrite changed): its
		// old translation is of no more use.
		n.left(st, true)
		st[2].Store(0)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// The first free port at or after the cursor, wrapping from 65535 to
	// the base; the cursor moves past it.
	port, ok := n.pool.firstFree(n.nextPort, 65535)
	if !ok && n.nextPort > uint32(n.portBase) {
		port, ok = n.pool.firstFree(uint32(n.portBase), n.nextPort-1)
	}
	if !ok {
		return Mapping{}, false, ErrPortsExhausted
	}
	if n.nextPort = port + 1; n.nextPort > 65535 {
		n.nextPort = uint32(n.portBase)
	}
	m := Mapping{InsideIP: ft.SrcIP, InsidePort: ft.SrcPort, OutsidePort: uint16(port)}
	n.pool.take(m)
	hi, lo := ft.Key()
	st[0].Store(hi)
	st[1].Store(lo)
	st[2].Store(uint64(port) | portPresent)
	return m, true, nil
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
		m, isNew, err := n.translate(ctx.FlowState(&n.flows), ft)
		if err != nil {
			return 0, err
		}
		if isNew {
			ctx.Charge(ctx.Model.NATAllocate)
		} else {
			ctx.Charge(ctx.Model.ConnTrackLookup)
		}
		if err := ctx.AddModify(pkt, packet.FieldSrcIP, n.extIP[:]); err != nil {
			return 0, err
		}
		if err := ctx.AddModify(pkt, packet.FieldSrcPort, packet.PutUint16(m.OutsidePort)); err != nil {
			return 0, err
		}
	case ft.DstIP == n.extIP:
		// Inbound: reverse translation if a mapping exists.
		n.mu.Lock()
		m, ok := n.pool.lookup(ft.DstPort)
		n.mu.Unlock()
		ctx.Charge(ctx.Model.ConnTrackLookup)
		if !ok {
			// Unsolicited inbound traffic is dropped, as mazu-nat does.
			return core.VerdictDrop, ctx.AddHeaderAction(pkt, mat.Drop())
		}
		if err := ctx.AddModify(pkt, packet.FieldDstIP, m.InsideIP[:]); err != nil {
			return 0, err
		}
		if err := ctx.AddModify(pkt, packet.FieldDstPort, packet.PutUint16(m.InsidePort)); err != nil {
			return 0, err
		}
	default:
		// Transit traffic passes untouched.
		if err := ctx.AddHeaderAction(pkt, mat.Forward()); err != nil {
			return 0, err
		}
	}
	return core.VerdictForward, nil
}
