package core

import (
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/flow"
)

// Admission is the per-tenant isolation hook consulted by the engine's
// control plane (never on the fast path): fresh Global MAT rule
// installs and Event Table registrations pass through it, so a
// topology hosting several tenants can enforce rule quotas and event
// caps without the engine knowing what a tenant is — and the policy
// without knowing what a flow is. It keeps tenant counters only: what
// each flow holds, and so what to give back, the engine keeps on the
// flow's record (event.Standing), so every release matches one admit.
//
// Denials are strictly non-destructive: a denied rule install leaves
// the flow on the always-correct slow path (no stale-marking, no
// degradation ladder, nothing of any other flow touched) and is
// retried naturally on the flow's next initial packet; a denied event
// registration abandons the in-progress recording the same way. A
// quota can therefore never change a packet verdict — only which path
// computes it — which is what keeps the differential oracle immune to
// admission accounting.
//
// Tenant identity travels in packet.Meta.Tenant (0 = untagged, which
// implementations should never deny). Implementations must be safe for
// concurrent use; calls arrive from every data-path worker, under the
// flow's record lock, and must not call back into the engine.
type Admission interface {
	// AdmitRule asks to install a flow's first consolidated rule.
	// Returning false refuses the install; the flow stays on the slow
	// path and the engine retries on its next initial packet.
	AdmitRule(tenant int32) bool
	// ReleaseRule returns one admitted rule's budget: the engine removed
	// the flow's consolidated state (teardown, idle expiry, SYN reuse,
	// eviction), whether or not the rule was ever installed.
	ReleaseRule(tenant int32)
	// AdmitEvent asks to register one event for a flow. Returning false
	// refuses the registration; the engine abandons the flow's recording
	// (nothing reaches the Local MATs, and any already-admitted events are
	// removed and released) and keeps it on the slow path.
	AdmitEvent(tenant int32) bool
	// ReleaseEvents returns n admitted events' budget, everything one
	// flow was charged: fired one-shot events decay inside the Event Table
	// without a hook, so a flow holds its full event budget until its
	// recording goes — a deliberately conservative cap.
	ReleaseEvents(tenant int32, n int)
}

// admitRule charges the first install of the flow under edit to the
// tenant its events are charged to, if any, else to tenant. A flow
// holding its rule's budget is charged nothing, and neither is one with
// a rule on its entry: a restored or migrated rule went in uncharged, and
// refusing its rebuild would leave it served outdated.
func (e *Engine) admitRule(ed flow.Edit, tenant int32) bool {
	ok := true
	e.events.Stand(ed, true, func(h flow.Handle, s *event.Standing) {
		if s.Rule || h.Rule() != nil {
			return
		}
		if s.Events > 0 {
			tenant = s.Tenant
		}
		if ok = e.admission.AdmitRule(tenant); ok {
			s.Tenant, s.Rule = tenant, true
		}
	})
	return ok
}

// admitEvent charges one of the flow's event registrations to the
// packet's tenant.
func (c *Ctx) admitEvent() bool {
	ok := true
	ed := c.flows.EditHandle(c.h)
	defer ed.Done()
	c.events.Stand(ed, true, func(_ flow.Handle, s *event.Standing) {
		if ok = c.admit.AdmitEvent(c.tenant); ok {
			s.Tenant = c.tenant
			s.Events++
		}
	})
	return ok
}

// refund gives back what the flow under edit holds of its rule's budget
// (rule) and of its events' (events). It is a no-op without an admission
// policy, under which a flow never holds any.
func (e *Engine) refund(ed flow.Edit, rule, events bool) {
	if e.admission == nil {
		return
	}
	e.events.Stand(ed, false, func(_ flow.Handle, s *event.Standing) {
		if rule && s.Rule {
			e.admission.ReleaseRule(s.Tenant)
			s.Rule = false
		}
		if events && s.Events > 0 {
			e.admission.ReleaseEvents(s.Tenant, int(s.Events))
			s.Events = 0
		}
		if !s.Rule && s.Events == 0 {
			s.Tenant = 0
		}
	})
}
