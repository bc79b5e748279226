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
	"regexp"
	"sync"

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

// Snort is the IDS NF.
type Snort struct {
	name  string
	rules []Rule

	mu        sync.Mutex
	flowRules map[flow.FID][]int // rule indices assigned per flow
	logs      []LogEntry
	flagged   map[flow.FID]bool
}

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
	return &Snort{
		name:      name,
		rules:     append([]Rule(nil), rules...),
		flowRules: make(map[flow.FID][]int),
		flagged:   make(map[flow.FID]bool),
	}, nil
}

var _ core.NF = (*Snort)(nil)

// Name implements core.NF.
func (s *Snort) Name() string { return s.name }

var _ core.FlowCloser = (*Snort)(nil)

// FlowClosed implements core.FlowCloser: the per-flow rule assignment
// is released; logs and malicious-flow flags are reporting artifacts
// and are retained.
func (s *Snort) FlowClosed(fid flow.FID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.flowRules, fid)
}

// Logs returns a copy of the IDS log.
func (s *Snort) Logs() []LogEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LogEntry(nil), s.logs...)
}

// Flagged reports whether the flow was flagged malicious.
func (s *Snort) Flagged(fid flow.FID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flagged[fid]
}

// snortState is the gob image of Snort's mutable state. Rule indices
// stay valid across a restore because the rule list is construction
// config, not runtime state: the restored instance is built over the
// same list.
type snortState struct {
	FlowRules map[flow.FID][]int
	Logs      []LogEntry
	Flagged   map[flow.FID]bool
}

var _ core.Snapshotter = (*Snort)(nil)

// SnapshotState implements core.Snapshotter: per-flow rule
// assignments, the IDS log and the malicious-flow flags.
func (s *Snort) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := snortState{
		FlowRules: make(map[flow.FID][]int, len(s.flowRules)),
		Logs:      append([]LogEntry(nil), s.logs...),
		Flagged:   make(map[flow.FID]bool, len(s.flagged)),
	}
	for fid, idxs := range s.flowRules {
		st.FlowRules[fid] = append([]int(nil), idxs...)
	}
	for fid, v := range s.flagged {
		st.Flagged[fid] = v
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("snort: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements core.Snapshotter, replacing all mutable
// state.
func (s *Snort) RestoreState(data []byte) error {
	var st snortState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("snort: restore: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flowRules = st.FlowRules
	if s.flowRules == nil {
		s.flowRules = make(map[flow.FID][]int)
	}
	s.logs = st.Logs
	s.flagged = st.Flagged
	if s.flagged == nil {
		s.flagged = make(map[flow.FID]bool)
	}
	return nil
}

// assign selects the rule subset whose headers match the flow,
// caching per flow — the per-flow "rule matching function".
func (s *Snort) assign(fid flow.FID, ft packet.FiveTuple) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idxs, ok := s.flowRules[fid]; ok {
		return idxs
	}
	var idxs []int
	for i, r := range s.rules {
		if r.headerMatches(ft) {
			idxs = append(idxs, i)
		}
	}
	s.flowRules[fid] = idxs
	return idxs
}

// inspect runs the flow's assigned rules over a payload. The first
// matching rule decides the outcome (Snort's first-match semantics);
// Pass suppresses, Alert/Log record.
func (s *Snort) inspect(fid flow.FID, idxs []int, payload []byte) {
	for _, i := range idxs {
		r := s.rules[i]
		if !r.payloadMatches(payload) {
			continue
		}
		s.mu.Lock()
		switch r.Type {
		case TypePass:
			// Explicitly permitted traffic: no log.
		case TypeAlert:
			s.logs = append(s.logs, LogEntry{FID: fid, RuleID: r.ID, Type: r.Type, Msg: r.Msg})
			s.flagged[fid] = true
		case TypeLog:
			s.logs = append(s.logs, LogEntry{FID: fid, RuleID: r.ID, Type: r.Type, Msg: r.Msg})
		}
		s.mu.Unlock()
		return
	}
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
	fid := ctx.FID
	idxs := s.assign(fid, ft)
	payload := pkt.Payload()
	s.inspect(fid, idxs, payload)
	ctx.Charge(ctx.Model.InspectCost(len(payload)))
	if !ctx.Recording() {
		return core.VerdictForward, nil
	}

	if err := ctx.AddHeaderAction(mat.Forward()); err != nil {
		return 0, err
	}
	model := ctx.Model
	err = ctx.AddStateFunc(sfunc.Func{
		Name:  "inspect",
		Class: sfunc.ClassRead,
		Run: func(p *packet.Packet) (uint64, error) {
			pl := p.Payload()
			s.inspect(fid, idxs, pl)
			return model.InspectCost(len(pl)), nil
		},
	})
	if err != nil {
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
