// Package ipfilter implements the IPFilter firewall NF: a Click-style
// prototype that parses flow headers and checks them against a
// blacklist with linear scanning (paper §VI-C). Flows matching the
// blacklist receive drop actions, others forward actions.
//
// The paper reports integrating IPFilter into SpeedyBox with 20 added
// lines; the integration surface here is correspondingly thin — the
// Process method records one header action per flow.
package ipfilter

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
)

// Prefix matches an IPv4 address against a prefix. Bits == 0 matches
// everything.
type Prefix struct {
	Addr [4]byte
	Bits int
}

// Matches reports whether ip falls inside the prefix.
func (p Prefix) Matches(ip [4]byte) bool {
	if p.Bits <= 0 {
		return true
	}
	bits := p.Bits
	if bits > 32 {
		bits = 32
	}
	var a, b uint32
	for i := 0; i < 4; i++ {
		a = a<<8 | uint32(p.Addr[i])
		b = b<<8 | uint32(ip[i])
	}
	shift := uint(32 - bits)
	return a>>shift == b>>shift
}

// PortRange matches a port interval. A zero-value range (0,0) matches
// any port.
type PortRange struct {
	Lo, Hi uint16
}

// Matches reports whether port falls in the range.
func (r PortRange) Matches(port uint16) bool {
	if r.Lo == 0 && r.Hi == 0 {
		return true
	}
	return port >= r.Lo && port <= r.Hi
}

// Rule is one ACL entry.
type Rule struct {
	Src     Prefix
	Dst     Prefix
	SrcPort PortRange
	DstPort PortRange
	// Proto is the IP protocol; 0 matches any.
	Proto uint8
	// Deny drops matching flows; false allows them explicitly.
	Deny bool
}

// Matches reports whether the rule matches the tuple. It is the
// reference the filter's compiled scan must agree with.
func (r Rule) Matches(ft packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	return r.Src.Matches(ft.SrcIP) && r.Dst.Matches(ft.DstIP) &&
		r.SrcPort.Matches(ft.SrcPort) && r.DstPort.Matches(ft.DstPort)
}

// entry is a Rule compiled for the scan: each field a masked compare or
// a bound check on words taken out of the tuple once per scan, where
// Rule.Matches rebuilds both addresses for every rule. A prefix of no
// bits has mask 0, one past 32 bits is 32; a (0,0) port range is
// [0,65535]; proto 0 has mask 0.
type entry struct {
	src, srcMask, dst, dstMask uint32
	sLo, sHi, dLo, dHi         uint16
	proto, protoMask           uint8
	deny                       bool
}

// compile builds the rule's scan entry.
func compile(r Rule) entry {
	srcMask, dstMask := prefixMask(r.Src.Bits), prefixMask(r.Dst.Bits)
	e := entry{
		srcMask: srcMask, src: binary.BigEndian.Uint32(r.Src.Addr[:]) & srcMask,
		dstMask: dstMask, dst: binary.BigEndian.Uint32(r.Dst.Addr[:]) & dstMask,
		proto: r.Proto, deny: r.Deny,
	}
	e.sLo, e.sHi = portBounds(r.SrcPort)
	e.dLo, e.dHi = portBounds(r.DstPort)
	if r.Proto != 0 {
		e.protoMask = 0xff
	}
	return e
}

// prefixMask is the network mask of a prefix length, clamped to [0, 32].
func prefixMask(bits int) uint32 {
	switch {
	case bits <= 0:
		return 0
	case bits >= 32:
		return ^uint32(0)
	}
	return ^uint32(0) << (32 - bits)
}

// portBounds is the interval a PortRange matches.
func portBounds(r PortRange) (lo, hi uint16) {
	if r.Lo == 0 && r.Hi == 0 {
		return 0, 0xffff
	}
	return r.Lo, r.Hi
}

// matches reports whether the entry matches a tuple whose addresses are
// src and dst.
func (e *entry) matches(src, dst uint32, ft *packet.FiveTuple) bool {
	return src&e.srcMask == e.src && dst&e.dstMask == e.dst &&
		ft.Proto&e.protoMask == e.proto &&
		ft.SrcPort >= e.sLo && ft.SrcPort <= e.sHi &&
		ft.DstPort >= e.dLo && ft.DstPort <= e.dHi
}

// Config configures a Filter.
type Config struct {
	// Name is the NF instance name (must be unique in a chain).
	Name string
	// Rules are scanned linearly; the first match wins.
	Rules []Rule
	// DefaultDeny drops flows matching no rule; the default is allow.
	DefaultDeny bool
}

// Filter is the firewall NF. It keeps a per-flow decision cache, as the
// real IPFilter would: on the original (unconsolidated) path only the
// first packet of a flow pays the linear ACL scan — over the ACL compiled
// when the filter is built, each rule pre-masked, still entry by entry
// in order and still charged Model.ACLScanCost of its length. The cached decision is
// three words of per-flow state on the flow record — the tuple it was
// made on (packet.FiveTuple.Key's two words) and the verdict — because a
// decision is only good for the tuple the filter saw: an upstream NF
// that starts rewriting the flow differently (a load balancer failing
// over) changes it, and the filter scans again.
type Filter struct {
	name        string
	acl         []entry
	defaultDeny bool
	flows       core.FlowStates

	scanned, allowed, denied atomic.Uint64
}

// Verdict word of a flow's state: decided, and which way.
const (
	verdictAllow = 1
	verdictDeny  = 2
)

// Stats counts the filter's decisions.
type Stats struct {
	Scanned uint64
	Allowed uint64
	Denied  uint64
}

// New builds a Filter.
func New(cfg Config) (*Filter, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("ipfilter: empty name")
	}
	f := &Filter{
		name:        cfg.Name,
		acl:         make([]entry, len(cfg.Rules)),
		defaultDeny: cfg.DefaultDeny,
	}
	for i, r := range cfg.Rules {
		f.acl[i] = compile(r)
	}
	f.flows.Words = 3
	return f, nil
}

var _ core.Stateful = (*Filter)(nil)

// Name implements core.NF.
func (f *Filter) Name() string { return f.name }

// FlowStates implements core.Stateful.
func (f *Filter) FlowStates() *core.FlowStates { return &f.flows }

// NumRules returns the ACL length.
func (f *Filter) NumRules() int { return len(f.acl) }

// Stats returns a snapshot of the decision counters.
func (f *Filter) Stats() Stats {
	return Stats{Scanned: f.scanned.Load(), Allowed: f.allowed.Load(), Denied: f.denied.Load()}
}

// decide runs the ACL over a tuple, or reuses the flow's cached decision
// if it was made on this tuple. It returns (deny, cacheHit).
func (f *Filter) decide(st core.State, ft packet.FiveTuple) (bool, bool) {
	hi, lo := ft.Key()
	if v := st[2].Load(); v != 0 && st[0].Load() == hi && st[1].Load() == lo {
		return v == verdictDeny, true
	}
	deny := f.scan(&ft)
	st[0].Store(hi)
	st[1].Store(lo)
	f.scanned.Add(1)
	if deny {
		st[2].Store(verdictDeny)
		f.denied.Add(1)
	} else {
		st[2].Store(verdictAllow)
		f.allowed.Add(1)
	}
	return deny, false
}

// scan runs the ACL over a tuple, first match winning, and reports
// whether the verdict is deny.
func (f *Filter) scan(ft *packet.FiveTuple) bool {
	src, dst := binary.BigEndian.Uint32(ft.SrcIP[:]), binary.BigEndian.Uint32(ft.DstIP[:])
	for i := range f.acl {
		if e := &f.acl[i]; e.matches(src, dst, ft) {
			return e.deny
		}
	}
	return f.defaultDeny
}

// Process implements core.NF.
func (f *Filter) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("ipfilter %s: %w", f.name, err)
	}
	deny, hit := f.decide(ctx.FlowState(&f.flows), ft)
	if hit {
		ctx.Charge(ctx.Model.FlowCacheHit)
	} else {
		ctx.Charge(ctx.Model.ACLScanCost(len(f.acl)))
	}
	if deny {
		if err := ctx.AddHeaderAction(mat.Drop()); err != nil {
			return 0, err
		}
		ctx.Charge(ctx.Model.DropAction)
		return core.VerdictDrop, nil
	}
	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}

// PadRules appends synthetic never-matching deny rules until the ACL
// has n entries, so microbenchmarks control the linear-scan length the
// way the paper's testbed configuration did.
func PadRules(rules []Rule, n int) []Rule {
	out := append([]Rule(nil), rules...)
	for i := len(out); i < n; i++ {
		out = append(out, Rule{
			Src:  Prefix{Addr: [4]byte{203, 0, 113, byte(i)}, Bits: 32},
			Dst:  Prefix{Addr: [4]byte{203, 0, 113, byte(i)}, Bits: 32},
			Deny: true,
		})
	}
	return out
}
