package topo

import "sync"

// TenantAdmission implements core.Admission over the spec's tenant
// quotas: each tenant holds at most RuleQuota concurrently installed
// rules and EventCap events those rules guard, summed across
// every chain of the topology. It counts by tenant only — what each flow
// holds is on the flow's record in its chain's engine, whose FIDs mean
// nothing to another chain's. Tenants the spec does not declare — the
// untagged tenant 0 among them, which a spec cannot declare — are
// tracked for telemetry and never denied.
//
// All state lives behind one mutex — admission is consulted only at
// control-plane sites (a rule's install and its removal),
// never per fast-path packet, so contention is bounded by the flow
// arrival rate, not the packet rate.
type TenantAdmission struct {
	mu      sync.Mutex
	tenants map[int32]*tenantState
}

// tenantState is one tenant's quota configuration and live usage.
type tenantState struct {
	ruleQuota uint64 // 0 = unlimited
	eventCap  uint64 // 0 = unlimited
	rules     uint64
	events    uint64
	// Denial counters, monotonic; exported for telemetry and tests.
	ruleDenied  uint64
	eventDenied uint64
}

// NewTenantAdmission builds the policy from the spec's declarations.
func NewTenantAdmission(specs []TenantSpec) *TenantAdmission {
	a := &TenantAdmission{tenants: make(map[int32]*tenantState, len(specs))}
	for _, s := range specs {
		a.tenants[s.ID] = &tenantState{ruleQuota: s.RuleQuota, eventCap: s.EventCap}
	}
	return a
}

// state returns the tenant's usage record, creating an unlimited one
// for tenants the spec did not declare. The caller holds a.mu.
func (a *TenantAdmission) state(tenant int32) *tenantState {
	ts := a.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		a.tenants[tenant] = ts
	}
	return ts
}

// admit charges one unit against quota (0 = unlimited), counting a
// denial instead when the tenant is at its quota.
func admit(held, denied *uint64, quota uint64) bool {
	if quota > 0 && *held >= quota {
		*denied++
		return false
	}
	*held++
	return true
}

// AdmitRule implements core.Admission.
func (a *TenantAdmission) AdmitRule(tenant int32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.state(tenant)
	return admit(&ts.rules, &ts.ruleDenied, ts.ruleQuota)
}

// ReleaseRule implements core.Admission.
func (a *TenantAdmission) ReleaseRule(tenant int32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state(tenant).rules--
}

// AdmitEvent implements core.Admission.
func (a *TenantAdmission) AdmitEvent(tenant int32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.state(tenant)
	return admit(&ts.events, &ts.eventDenied, ts.eventCap)
}

// ReleaseEvents implements core.Admission.
func (a *TenantAdmission) ReleaseEvents(tenant int32, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state(tenant).events -= uint64(n)
}

// RulesHeld returns the tenant's concurrently held rule count.
func (a *TenantAdmission) RulesHeld(tenant int32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.tenants[tenant]; ts != nil {
		return ts.rules
	}
	return 0
}

// EventsHeld returns the tenant's concurrently held event count.
func (a *TenantAdmission) EventsHeld(tenant int32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.tenants[tenant]; ts != nil {
		return ts.events
	}
	return 0
}

// RuleDenials returns the tenant's cumulative rule-quota denials.
func (a *TenantAdmission) RuleDenials(tenant int32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.tenants[tenant]; ts != nil {
		return ts.ruleDenied
	}
	return 0
}

// EventDenials returns the tenant's cumulative event-cap denials.
func (a *TenantAdmission) EventDenials(tenant int32) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ts := a.tenants[tenant]; ts != nil {
		return ts.eventDenied
	}
	return 0
}
