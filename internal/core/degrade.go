package core

import (
	"github.com/fastpathnfv/speedybox/internal/event"
	"github.com/fastpathnfv/speedybox/internal/fault"
	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// The degradation ladder tracks flows whose fast-path rule is missing,
// stale-marked or refused: every set-up that fails (an NF error, a
// recording no rule can carry, an admission denial, an install fault)
// parks its flow here. Packets of a degraded flow take the slow-path
// chain — which is always correct — while the set-up is retried with
// bounded exponential backoff, so a refusal costs speed, not a set-up
// on every packet. Deadlines are logical-clock ticks (Engine.clock: one
// tick per classified packet), keeping the ladder deterministic for the
// differential oracle. A flow's place on the ladder is part of
// its standing on its flow record (event.Standing): it goes with the
// entry, and the recording gate reads it off the handle.

// Backoff, in logical-clock ticks: the first retry waits
// degradeBackoffBase packets, doubling per consecutive failure up to
// degradeBackoffBase << (degradeMaxFails-1), 1024.
const (
	degradeBackoffBase = 8
	degradeMaxFails    = 8
)

// degrade moves the flow under edit onto (or up) the ladder. escalate
// counts a refused set-up or a lost recomputation: consecutive failures
// double the retry deadline up to the cap. Without it the flow waits for
// the very next initial packet (a delayed, not lost, recomputation).
func (e *Engine) degrade(ed flow.Edit, cause string, escalate bool) {
	if !ed.Found() {
		return
	}
	now := e.clock.Load()
	e.events.Stand(ed, true, func(_ flow.Handle, s *event.Standing) {
		backoff := uint64(1)
		if escalate {
			s.Fails = min(s.Fails+1, degradeMaxFails)
			backoff = degradeBackoffBase << (s.Fails - 1)
		}
		s.RetryAt.Store(now + backoff)
	})
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvDegrade, uint32(ed.Handle().FID()), cause)
	}
}

// markStale is a fault of kind leaving the rule of the flow under edit
// at odds with its recording: the rule is stale-marked, the flow degraded.
func (e *Engine) markStale(ed flow.Edit, kind fault.Kind, cause string, escalate bool) {
	stale := e.global.MarkStaleAt(ed)
	e.degrade(ed, cause, escalate)
	if e.tel != nil && ed.Found() {
		fid := uint32(ed.Handle().FID())
		e.tel.rec.Append(telemetry.EvFaultInject, fid, kind.String())
		if stale {
			e.tel.rec.Append(telemetry.EvRuleStale, fid, cause)
		}
	}
}

// clearDegraded takes the flow under edit off the ladder after a
// successful rule install, counting the recovery.
func (e *Engine) clearDegraded(ed flow.Edit) {
	h := ed.Handle()
	if event.RetryAt(h) == 0 {
		return
	}
	recovered := false
	e.events.Stand(ed, false, func(_ flow.Handle, s *event.Standing) {
		recovered = s.RetryAt.Swap(0) != 0
		s.Fails = 0
	})
	if !recovered {
		return
	}
	e.statsFor(h.FID()).faultRecoveries.Add(1)
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvRecover, uint32(h.FID()), "")
	}
}

// DegradedFlows returns how many flows currently sit on the
// degradation ladder (slow-path only, awaiting rule reinstallation): a
// walk of the flow table, for the speedybox_fault_degraded_flows gauge
// and status rollups.
func (e *Engine) DegradedFlows() int {
	n := 0
	e.class.Flows().Each(func(h flow.Handle) {
		if event.RetryAt(h) != 0 {
			n++
		}
	})
	return n
}
