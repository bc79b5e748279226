// Package snort implements the Snort-style IDS NF (paper §VI-C): it
// classifies flows against a rule list, assigns each flow an
// inspection function on its initial packet (paper Observation 1:
// "Snort assigns a rule matching function for each flow as initial
// packet arrives"), and inspects every packet's payload with content
// and regular-expression matching. Matches produce Pass/Alert/Log
// outcomes; Alert and Log append to the IDS log, and the equivalence
// tests of §VII-C compare those logs between the original and
// consolidated paths.
package snort

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"regexp"
	"sync"
	"sync/atomic"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/mat"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/sfunc"
)

// RuleType is the Snort rule action (§VII-C1 exercises all three).
type RuleType int

// Rule types. Enum starts at one.
const (
	// TypePass suppresses logging for matching traffic.
	TypePass RuleType = iota + 1
	// TypeAlert logs an alert and flags the flow as malicious.
	TypeAlert
	// TypeLog records the packet without raising an alert.
	TypeLog
)

// String returns the Snort keyword.
func (t RuleType) String() string {
	switch t {
	case TypePass:
		return "pass"
	case TypeAlert:
		return "alert"
	case TypeLog:
		return "log"
	default:
		return fmt.Sprintf("RuleType(%d)", int(t))
	}
}

// Rule is one inspection rule: a header filter plus a payload
// predicate (literal content and/or a regular expression — the paper
// notes Snort "requires regular matching to inspect packet payload",
// which OVS cannot express).
type Rule struct {
	// ID is the rule's identifier (appears in log entries).
	ID int
	// Type is the action on match.
	Type RuleType
	// Proto filters by transport protocol; 0 matches any.
	Proto uint8
	// DstPort filters by destination port; 0 matches any.
	DstPort uint16
	// Content is a literal payload substring; empty matches any.
	Content []byte
	// Pattern is an optional compiled regular expression over the
	// payload.
	Pattern *regexp.Regexp
	// Msg is the human-readable message logged on match.
	Msg string
}

// headerMatches reports whether the rule's header filter accepts the
// flow.
func (r Rule) headerMatches(ft packet.FiveTuple) bool {
	if r.Proto != 0 && r.Proto != ft.Proto {
		return false
	}
	if r.DstPort != 0 && r.DstPort != ft.DstPort {
		return false
	}
	return true
}

// payloadMatches evaluates the payload predicate.
func (r Rule) payloadMatches(payload []byte) bool {
	if len(r.Content) > 0 && !bytes.Contains(payload, r.Content) {
		return false
	}
	if r.Pattern != nil && !r.Pattern.Match(payload) {
		return false
	}
	return len(r.Content) > 0 || r.Pattern != nil
}

// LogEntry is one IDS log record.
type LogEntry struct {
	FID    flow.FID
	RuleID int
	Type   RuleType
	Msg    string
}

// Snort is the IDS NF. A flow's rule assignment is per-flow state on its
// flow record: word 0 holds the assigned and flagged-malicious bits, the
// words after it one bit a rule — the subset whose headers match the
// flow, which the recorded inspection function walks. What Snort keeps
// itself is the log, which flows share.
type Snort struct {
	name  string
	rules []Rule
	flows core.FlowStates

	mu   sync.Mutex
	logs []LogEntry
}

// Bits of word 0 of a flow's state.
const (
	flowAssigned = 1 << iota
	flowFlagged
)

// New builds a Snort instance over the rule list.
func New(name string, rules []Rule) (*Snort, error) {
	if name == "" {
		return nil, fmt.Errorf("snort: empty name")
	}
	for i, r := range rules {
		if r.Type < TypePass || r.Type > TypeLog {
			return nil, fmt.Errorf("snort: rule %d has invalid type %d", i, int(r.Type))
		}
	}
	s := &Snort{name: name, rules: append([]Rule(nil), rules...)}
	s.flows.Words = 1 + (len(rules)+63)/64
	s.flows.Funcs = []sfunc.Func{{Name: "inspect", Class: sfunc.ClassRead, Run: s.inspectFunc}}
	return s, nil
}

var _ core.Stateful = (*Snort)(nil)

// Name implements core.NF.
func (s *Snort) Name() string { return s.name }

// FlowStates implements core.Stateful.
func (s *Snort) FlowStates() *core.FlowStates { return &s.flows }

// Logs returns a copy of the IDS log.
func (s *Snort) Logs() []LogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LogEntry(nil), s.logs...)
}

// Flagged reports whether the live flow was flagged malicious.
func (s *Snort) Flagged(fid flow.FID) bool {
	st := s.flows.Of(fid)
	return st != nil && st[0].Load()&flowFlagged != 0
}

var _ core.Snapshotter = (*Snort)(nil)

// SnapshotState implements core.Snapshotter: the IDS log. The per-flow
// rule assignments travel on the flow records; their rule indices stay
// valid because the rule list is construction config — the restored
// instance is built over the same list.
func (s *Snort) SnapshotState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.Logs()); err != nil {
		return nil, fmt.Errorf("snort: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing the log.
func (s *Snort) RestoreState(data []byte) error {
	var logs []LogEntry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&logs); err != nil {
		return fmt.Errorf("snort: restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logs = logs
	return nil
}

// assign selects the rule subset whose headers match the flow, once per
// flow — the per-flow "rule matching function".
func (s *Snort) assign(st core.State, ft packet.FiveTuple) {
	if st[0].Load()&flowAssigned != 0 {
		return
	}
	for i, r := range s.rules {
		if r.headerMatches(ft) {
			setBits(&st[1+i/64], 1<<(i%64))
		}
	}
	setBits(&st[0], flowAssigned)
}

// setBits ors b into w (atomic.Uint64.Or, which go 1.22 lacks).
func setBits(w *atomic.Uint64, b uint64) {
	for {
		old := w.Load()
		if old&b == b || w.CompareAndSwap(old, old|b) {
			return
		}
	}
}

// inspect runs the flow's assigned rules over a payload. The first
// matching rule decides the outcome (Snort's first-match semantics);
// Pass suppresses, Alert/Log record.
func (s *Snort) inspect(fid flow.FID, st core.State, payload []byte) {
	for w := range st[1:] {
		for set := st[1+w].Load(); set != 0; set &= set - 1 {
			i := w*64 + bits.TrailingZeros64(set)
			if i >= len(s.rules) {
				return // state from a Snort with a longer rule list
			}
			r := &s.rules[i]
			if !r.payloadMatches(payload) {
				continue
			}
			if r.Type != TypePass { // explicitly permitted traffic: no log
				s.mu.Lock()
				s.logs = append(s.logs, LogEntry{FID: fid, RuleID: r.ID, Type: r.Type, Msg: r.Msg})
				s.mu.Unlock()
			}
			if r.Type == TypeAlert {
				setBits(&st[0], flowFlagged)
			}
			return
		}
	}
}

// inspectFunc is the declared inspection state function.
func (s *Snort) inspectFunc(a sfunc.Args, p *packet.Packet) (uint64, error) {
	pl := p.Payload()
	s.inspect(a.FID, a.State, pl)
	return a.Model.InspectCost(len(pl)), nil
}

// Process implements core.NF. Snort does not modify packets, so the
// header action is forward (§VI-C); the inspection handler is recorded
// as a payload-reading state function. The paper's 27-line Snort
// integration corresponds to the three ctx calls below.
func (s *Snort) Process(ctx *core.Ctx, pkt *packet.Packet) (core.Verdict, error) {
	ctx.Charge(ctx.Model.Parse + ctx.Model.Classify)
	ft, err := pkt.FiveTuple()
	if err != nil {
		return 0, fmt.Errorf("snort %s: %w", s.name, err)
	}
	fid, st := ctx.FID, ctx.FlowState(&s.flows)
	s.assign(st, ft)
	payload := pkt.Payload()
	s.inspect(fid, st, payload)
	ctx.Charge(ctx.Model.InspectCost(len(payload)))
	if !ctx.Recording() {
		return core.VerdictForward, nil
	}

	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	if err := ctx.AddStateFunc(0); err != nil {
		return 0, err
	}
	return core.VerdictForward, nil
}

// DefaultRules returns a small representative rule set with all three
// rule types, used by examples and the evaluation harness.
func DefaultRules() []Rule {
	return []Rule{
		{ID: 1001, Type: TypeAlert, Content: []byte("ATTACK"), Msg: "known exploit signature"},
		{ID: 1002, Type: TypeAlert, Pattern: regexp.MustCompile(`(?i)select\s.+\sfrom`), Msg: "SQL injection attempt"},
		{ID: 1003, Type: TypeLog, Content: []byte("LOGIN"), Msg: "login observed"},
		{ID: 1004, Type: TypePass, Content: []byte("HEALTHCHECK"), Msg: "health probe"},
		{ID: 1005, Type: TypeLog, Pattern: regexp.MustCompile(`GET /admin`), Msg: "admin path access"},
	}
}
