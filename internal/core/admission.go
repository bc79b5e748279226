package core

import (
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
)

// Admission is the per-tenant isolation hook consulted by the engine's
// control plane (never on the fast path): the install of a rule built
// from a traversal's recording is charged for the rule and for the
// events the recording registered, so a topology hosting several
// tenants can enforce rule quotas and event caps without the engine
// knowing what a tenant is — and the policy without knowing what a flow
// is. It keeps tenant counters only: what each flow holds, and so what
// to give back, the engine keeps on the flow's record (event.Standing),
// so every release matches one admit.
//
// A denial parks the flow on the degradation ladder (Engine.degrade),
// as every refused set-up does: it keeps the always-correct slow path,
// nothing of any other flow is touched, and it records again once its
// backoff has passed. A quota can therefore never change a packet
// verdict — only which path computes it — which is what keeps the
// differential oracle immune to admission accounting.
//
// Tenant identity travels in packet.Meta.Tenant (0 = untagged, which
// implementations should never deny). Implementations must be safe for
// concurrent use; calls arrive from every data-path worker, under the
// flow's record lock, and must not call back into the engine.
type Admission interface {
	// AdmitRule asks for a flow's rule once its events are admitted,
	// unless the flow holds a rule's budget already. False refuses the
	// install.
	AdmitRule(tenant int32) bool
	// ReleaseRule returns one admitted rule's budget: the engine removed
	// the flow's consolidated state (teardown, idle expiry, SYN reuse,
	// eviction), whether or not the rule was ever installed.
	ReleaseRule(tenant int32)
	// AdmitEvent asks, at the same install, for one of the events the
	// recording registered: each is asked, before the rule, and any false
	// refuses the install.
	AdmitEvent(tenant int32) bool
	// ReleaseEvents returns n admitted events' budget, all one flow was
	// charged: a firing's rebuild is charged nothing, so a flow holds its
	// full event budget until its rule goes, a deliberately conservative
	// cap.
	ReleaseEvents(tenant int32, n int)
}

// admit charges the install of the rule built from a traversal's
// recording, which registered events events, to tenant: each event, then
// the rule, all or nothing, in one lock of the flow under edit's record.
// A flow holding its rule's budget — its rule is not served, or a
// traversal it raced installed it — is charged no rule, and its events'
// charge is swapped for this one; one whose rule went in uncharged (a
// restore, a move) is charged nothing, as its rule was not. A refusal
// gives back what it admitted, counts the denial and returns its cause,
// for the caller to park the flow under; an admission returns "".
func (e *Engine) admit(ed flow.Edit, tenant int32, events int) (refused string) {
	e.events.Stand(ed, true, func(h flow.Handle, s *event.Standing) {
		switch {
		case s.Rule:
			tenant = s.Tenant
		case h.Rule() != nil:
			return
		}
		if s.Events > 0 {
			e.admission.ReleaseEvents(tenant, int(s.Events))
			s.Events = 0
		}
		n := 0
		for range events {
			if e.admission.AdmitEvent(tenant) {
				n++
			}
		}
		switch {
		case n < events:
			e.statsFor(h.FID()).eventCapDenied.Add(1)
			refused = CauseEventCap
		case !s.Rule && !e.admission.AdmitRule(tenant):
			e.statsFor(h.FID()).ruleQuotaDenied.Add(1)
			refused = CauseRuleQuota
		default:
			s.Tenant, s.Rule, s.Events = tenant, true, uint16(events)
			return
		}
		if n > 0 {
			e.admission.ReleaseEvents(tenant, n)
		}
	})
	return refused
}

// refund gives back what the flow under edit holds of its rule's and its
// events' budgets. It is a no-op without an admission policy, under
// which a flow never holds any.
func (e *Engine) refund(ed flow.Edit) {
	if e.admission == nil {
		return
	}
	e.events.Stand(ed, false, func(_ flow.Handle, s *event.Standing) {
		if s.Rule {
			e.admission.ReleaseRule(s.Tenant)
		}
		if s.Events > 0 {
			e.admission.ReleaseEvents(s.Tenant, int(s.Events))
		}
		s.Tenant, s.Rule, s.Events = 0, false, 0
	})
}
