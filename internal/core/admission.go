package core

import "github.com/fastpathnfv/speedybox/internal/flow"

// Admission is the per-tenant isolation hook consulted by the engine's
// control plane (never on the fast path): fresh Global MAT rule
// installs and Event Table registrations pass through it, so a
// topology hosting several tenants can enforce rule quotas and event
// caps without the engine knowing what a tenant is.
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
// implementations should exempt from quotas; callers that do not know
// the tenant — event-driven reconsolidation, Engine.ConsolidateFlow —
// pass -1, meaning "resolve the tenant recorded for this flow").
//
// Implementations must be safe for concurrent use; calls arrive from
// every data-path worker. AdmitRule must be idempotent per flow (a
// second admit of an already-admitted FID returns true without
// consuming quota): install faults make the engine retry the gate.
type Admission interface {
	// AdmitRule asks to install the flow's first consolidated rule.
	// Returning false refuses the install; the flow stays on the slow
	// path and the engine retries on its next initial packet.
	AdmitRule(tenant int32, fid flow.FID) bool
	// ReleaseRule returns the flow's rule budget. The engine calls it
	// whenever it removes the flow's consolidated state (teardown,
	// idle expiry, SYN reuse, eviction), whether or not a rule was
	// actually installed, so implementations must tolerate releases of
	// never-admitted flows.
	ReleaseRule(fid flow.FID)
	// AdmitEvent asks to register one event for the flow. Returning
	// false refuses the registration; the engine abandons the flow's
	// recording (nothing reaches the Local MATs, and any
	// already-admitted events are removed and released) and keeps it on
	// the slow path.
	AdmitEvent(tenant int32, fid flow.FID) bool
	// ReleaseEvents returns everything AdmitEvent charged for the
	// flow. Fired one-shot events decay inside the Event Table without
	// a hook, so implementations hold the flow's full event budget
	// until this call — a deliberately conservative cap.
	ReleaseEvents(fid flow.FID)
}
