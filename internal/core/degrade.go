package core

import (
	"sync"

	"github.com/fastpathnfv/speedybox/internal/flow"
	"github.com/fastpathnfv/speedybox/internal/telemetry"
)

// The degradation ladder tracks flows whose fast-path rule is missing,
// stale-marked, or failed to install. Packets of a degraded flow take
// the slow-path chain — which is always correct — while rule
// reinstallation is retried with bounded exponential backoff, so a
// persistently failing control plane cannot burn consolidation work on
// every packet. Deadlines are logical-clock ticks (classifier.Now():
// one tick per classified packet), keeping the ladder deterministic
// for the differential oracle.

// degradeShardCount is the number of degraded-flow shards (power of
// two), matching the engine's FID-sharding of all other per-flow state.
const degradeShardCount = 32

// Backoff bounds, in logical-clock ticks: the first retry waits
// degradeBackoffBase packets, doubling per consecutive failure up to
// degradeBackoffCap.
const (
	degradeBackoffBase = 8
	degradeBackoffCap  = 1024
)

// degradeState is one degraded flow's ladder position.
type degradeState struct {
	// fails counts consecutive failed recoveries.
	fails int
	// retryAt is the logical-clock deadline after which the next
	// initial packet may retry recording and reinstalling.
	retryAt uint64
	// cause labels the most recent degradation for telemetry.
	cause string
}

// degradeShard is one independently locked slice of the ladder.
type degradeShard struct {
	mu    sync.Mutex
	flows map[flow.FID]*degradeState
	_     [40]byte // pad to a 64-byte cache line (best effort)
}

// initLadder makes the ladder's maps — the one FID-keyed table the
// engine keeps beside the flow table.
func (e *Engine) initLadder() {
	for i := range e.degraded {
		e.degraded[i].flows = make(map[flow.FID]*degradeState)
	}
}

func (e *Engine) degradeShardFor(fid flow.FID) *degradeShard {
	return &e.degraded[uint32(fid)&(degradeShardCount-1)]
}

// degradeFlow moves the flow onto (or up) the ladder after a failed
// install or a lost recomputation: consecutive failures double the
// retry deadline up to the cap.
func (e *Engine) degradeFlow(fid flow.FID, cause string) {
	now := e.class.Now()
	s := e.degradeShardFor(fid)
	s.mu.Lock()
	st, ok := s.flows[fid]
	if !ok {
		st = &degradeState{}
		s.flows[fid] = st
	}
	st.fails++
	backoff := uint64(degradeBackoffBase)
	if st.fails > 1 {
		shift := st.fails - 1
		if shift > 7 {
			shift = 7 // 8<<7 == degradeBackoffCap
		}
		backoff = degradeBackoffBase << shift
	}
	if backoff > degradeBackoffCap {
		backoff = degradeBackoffCap
	}
	st.retryAt = now + backoff
	st.cause = cause
	s.mu.Unlock()
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvDegrade, uint32(fid), cause)
	}
}

// deferRetry parks the flow on the ladder without escalating: the very
// next initial packet may retry. Used for delayed (not lost)
// recomputations, where the control plane is expected to catch up
// immediately.
func (e *Engine) deferRetry(fid flow.FID, cause string) {
	now := e.class.Now()
	s := e.degradeShardFor(fid)
	s.mu.Lock()
	st, ok := s.flows[fid]
	if !ok {
		st = &degradeState{}
		s.flows[fid] = st
	}
	st.retryAt = now + 1
	st.cause = cause
	s.mu.Unlock()
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvDegrade, uint32(fid), cause)
	}
}

// recordingAllowed gates an initial packet's recording attempt: a flow
// on the ladder may only retry once its backoff deadline has passed.
// Flows not on the ladder always may record.
func (e *Engine) recordingAllowed(fid flow.FID) bool {
	s := e.degradeShardFor(fid)
	s.mu.Lock()
	st, ok := s.flows[fid]
	if !ok {
		s.mu.Unlock()
		return true
	}
	due := e.class.Now() >= st.retryAt
	s.mu.Unlock()
	return due
}

// clearDegraded removes the flow from the ladder after a successful
// rule install, counting the recovery.
func (e *Engine) clearDegraded(fid flow.FID) {
	s := e.degradeShardFor(fid)
	s.mu.Lock()
	_, ok := s.flows[fid]
	if ok {
		delete(s.flows, fid)
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	e.stats[uint32(fid)&(statsShardCount-1)].faultRecoveries.Add(1)
	if e.tel != nil {
		e.tel.rec.Append(telemetry.EvRecover, uint32(fid), "")
	}
}

// dropDegraded silently forgets the flow's ladder state on connection
// teardown or SYN reuse: the next incarnation of the 5-tuple must not
// inherit the previous connection's backoff.
func (e *Engine) dropDegraded(fid flow.FID) {
	s := e.degradeShardFor(fid)
	s.mu.Lock()
	delete(s.flows, fid)
	s.mu.Unlock()
}

// degradedLen returns how many flows are on the ladder (the
// speedybox_fault_degraded_flows gauge).
func (e *Engine) degradedLen() int {
	n := 0
	for i := range e.degraded {
		s := &e.degraded[i]
		s.mu.Lock()
		n += len(s.flows)
		s.mu.Unlock()
	}
	return n
}

// countDegradedPacket accounts one packet that would have been
// accelerated but is held on the slow path by the ladder.
func (e *Engine) countDegradedPacket(fid flow.FID) {
	sh := &e.stats[uint32(fid)&(statsShardCount-1)]
	sh.degradedPackets.Add(1)
	sh.slowFallbacks.Add(1)
}

// countFallback accounts one fast-path packet transparently redirected
// to the slow path because its rule was missing or stale. Deliberately
// not journaled: a long degradation would otherwise flood the flight
// recorder with one record per packet.
func (e *Engine) countFallback(fid flow.FID) {
	e.stats[uint32(fid)&(statsShardCount-1)].slowFallbacks.Add(1)
}
