package harness

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/fastpathnfv/speedybox/internal/bess"
	"github.com/fastpathnfv/speedybox/internal/chainspec"
	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

// The comparator: chain-output equivalence (Khalid & Akella, PAPERS.md)
// is the one specification the oracle and the §VII-C case studies check,
// and packetDiff (each packet's outcome) and stateDiff (what the NFs
// observed by the end of the trace) are its one implementation.

// outcome is what the comparator holds of one packet beyond its bytes.
type outcome struct {
	chain   int
	verdict core.Verdict
}

// packetDiff returns how a packet of the system under test (fp, got)
// differs from its reference twin (rp, want) — route, verdict, drop
// state, or the bytes of a packet that leaves — or "" if they agree.
func packetDiff(rp, fp *packet.Packet, want, got outcome) string {
	switch {
	case want.chain != got.chain:
		return fmt.Sprintf("route: ref chain %d, fast chain %d", want.chain, got.chain)
	case want.verdict != got.verdict:
		return fmt.Sprintf("verdict: ref %v, fast %v", want.verdict, got.verdict)
	case rp.Dropped() != fp.Dropped():
		return fmt.Sprintf("dropped: ref %v, fast %v", rp.Dropped(), fp.Dropped())
	case !rp.Dropped() && !bytes.Equal(rp.Data(), fp.Data()):
		return fmt.Sprintf("rewritten bytes differ (%d vs %d bytes)", len(rp.Data()), len(fp.Data()))
	}
	return ""
}

// stateDiff returns how the NF-observable state the system under test's
// chain (fc) left differs from the reference's (rc): its Monitor totals
// and its Snort logs, each "" if they agree.
func stateDiff(rc, fc *oracleChain) (counters, logs string) {
	if rc.mon != nil && rc.mon.Totals() != fc.mon.Totals() {
		counters = fmt.Sprintf("monitor counters: ref %+v, fast %+v", rc.mon.Totals(), fc.mon.Totals())
	}
	if rc.ids != nil {
		rl, fl := rc.ids.Logs(), fc.ids.Logs()
		j := 0
		for j < len(rl) && j < len(fl) && rl[j].RuleID == fl[j].RuleID && rl[j].Type == fl[j].Type {
			j++
		}
		if j < len(rl) || j < len(fl) {
			logs = fmt.Sprintf("snort logs: ref %d entries, fast %d, first difference at entry %d", len(rl), len(fl), j)
		}
	}
	return counters, logs
}

// oracleChain is one system's reconfigurable chain with its observable
// NFs picked out.
type oracleChain struct {
	names []string
	lb    *maglev.Maglev
	mon   *monitor.Monitor
	ids   *snort.Snort
}

func observeChain(nfs []core.NF) *oracleChain {
	oc := &oracleChain{}
	for _, nf := range nfs {
		oc.names = append(oc.names, nf.Name())
		switch v := nf.(type) {
		case *maglev.Maglev:
			oc.lb = v
		case *monitor.Monitor:
			oc.mon = v
		case *snort.Snort:
			oc.ids = v
		}
	}
	return oc
}

// EquivCheck is one equivalence case study's outcome.
type EquivCheck struct {
	Name   string
	Passed bool
	Detail string
}

// EquivResult reproduces the §VII-C empirical equivalence tests.
type EquivResult struct {
	Checks []EquivCheck
}

// AllPassed reports whether every check held.
func (r *EquivResult) AllPassed() bool {
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return len(r.Checks) > 0
}

// Format renders the outcomes.
func (r *EquivResult) Format() string {
	t := &tableWriter{}
	t.title("§VII-C: Empirical equivalence tests")
	t.row("check", "result", "detail")
	for _, c := range r.Checks {
		t.row(c.Name, passFail(c.Passed), c.Detail)
	}
	return t.String()
}

// RunEquivalence executes all three case studies.
func RunEquivalence(cfg Config) (*EquivResult, error) {
	cfg = cfg.withDefaults(50)
	res := &EquivResult{}
	for _, check := range []func() (EquivCheck, error){
		func() (EquivCheck, error) { return equivSnortBranches(cfg) },
		func() (EquivCheck, error) { return equivMaglevEvent(cfg) },
		func() (EquivCheck, error) { return equivRealWorldChain(cfg, 1, chain1) },
		func() (EquivCheck, error) { return equivRealWorldChain(cfg, 2, chain2) },
	} {
		c, err := check()
		if err != nil {
			return nil, err
		}
		res.Checks = append(res.Checks, c)
	}
	return res, nil
}

// equivSnortBranches is §VII-C1: flows matching all three rule types
// must produce identical log outputs with and without SpeedyBox.
func equivSnortBranches(cfg Config) (EquivCheck, error) {
	tr, err := trace.Generate(trace.Config{
		Seed: cfg.Seed, Flows: 60,
		AlertFraction: 0.3, LogFraction: 0.3,
		Interleave: true,
	})
	if err != nil {
		return EquivCheck{}, err
	}
	run := func(opts core.Options) (*oracleChain, error) {
		ids, err := snort.New("snort", snort.DefaultRules())
		if err != nil {
			return nil, err
		}
		p, err := bess.New(bess.Config{Chain: []core.NF{ids}, Options: opts})
		if err != nil {
			return nil, err
		}
		defer func() { _ = p.Close() }()
		_, err = platform.RunBatch(p, tr.Packets(), max(cfg.Batch, 1), nil)
		return observeChain([]core.NF{ids}), err
	}
	base, err := run(cfg.options(core.BaselineOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	sbox, err := run(cfg.options(core.DefaultOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	check := EquivCheck{Name: "Snort Pass/Alert/Log branches", Detail: "no logs produced; vacuous"}
	if n := len(base.ids.Logs()); n > 0 {
		_, logs := stateDiff(base, sbox)
		check.Passed = logs == ""
		check.Detail = fmt.Sprintf("%d log entries, identical=%v", n, check.Passed)
	}
	return check, nil
}

// equivMaglevEvent is §VII-C2: a 10-packet flow whose backend fails
// after the fifth packet; packets 1-5 must carry ip1, packets 6-10
// ip2, and the payloads must be preserved.
func equivMaglevEvent(cfg Config) (EquivCheck, error) {
	ips := [][4]byte{{192, 168, 9, 1}, {192, 168, 9, 2}}
	lb, err := maglev.New(maglev.Config{Name: "maglev", Backends: []maglev.Backend{
		{Name: "b0", IP: ips[0], Port: 80},
		{Name: "b1", IP: ips[1], Port: 80},
	}})
	if err != nil {
		return EquivCheck{}, err
	}
	p, err := bess.New(bess.Config{Chain: []core.NF{lb}, Options: cfg.options(core.DefaultOptions())})
	if err != nil {
		return EquivCheck{}, err
	}
	defer func() { _ = p.Close() }()
	var dips [][4]byte
	payloadsOK := true
	for i := 1; i <= 10; i++ {
		if i == 6 {
			// Fail the backend the flow pinned on its first packet.
			if k := slices.Index(ips, dips[0]); k >= 0 {
				if err := lb.FailBackend(k); err != nil {
					return EquivCheck{}, err
				}
			}
		}
		payload := fmt.Sprintf("pkt-%02d", i)
		pkt := packet.MustBuild(packet.Spec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{100, 0, 0, 9},
			SrcPort: 7777, DstPort: 80, Proto: packet.ProtoTCP,
			TCPFlags: packet.TCPFlagACK, Seq: uint32(i),
			Payload: []byte(payload),
		})
		if _, err := p.Process(pkt); err != nil {
			return EquivCheck{}, err
		}
		dips = append(dips, pkt.DstIP())
		payloadsOK = payloadsOK && string(pkt.Payload()) == payload
	}
	// The DIP must switch at packet 6 and hold the new backend from then on.
	switchedAt := slices.IndexFunc(dips, func(d [4]byte) bool { return d != dips[0] })
	if switchedAt >= 0 {
		switchedAt++
	}
	held := !slices.ContainsFunc(dips[5:], func(d [4]byte) bool { return d != dips[9] })
	return EquivCheck{
		Name:   "Maglev mid-stream event (pkt 6 of 10)",
		Passed: switchedAt == 6 && held && payloadsOK,
		Detail: fmt.Sprintf("DIP switched at packet %d (want 6), payloads preserved=%v", switchedAt, payloadsOK),
	}, nil
}

// equivRealWorldChain is §VII-C3: a trace through a real-world chain,
// with Maglev backend failure injected mid-stream on Chain 1; the
// oracle's comparator holds SpeedyBox's packet outputs, Monitor counters
// and Snort logs to the original chain's.
func equivRealWorldChain(cfg Config, chain int, spec *chainspec.Spec) (EquivCheck, error) {
	tr, err := trace.Generate(trace.Config{
		Seed: cfg.Seed + int64(chain), Flows: cfg.Flows,
		AlertFraction: 0.1, LogFraction: 0.1,
		Interleave: true,
	})
	if err != nil {
		return EquivCheck{}, err
	}
	type observation struct {
		pkts []*packet.Packet
		outs []outcome
		oc   *oracleChain
	}
	run := func(opts core.Options) (*observation, error) {
		nfs, err := spec.Build()
		if err != nil {
			return nil, err
		}
		p, err := bess.New(bess.Config{Chain: nfs, Options: opts})
		if err != nil {
			return nil, err
		}
		defer func() { _ = p.Close() }()
		obs := &observation{pkts: tr.Packets(), oc: observeChain(nfs)}
		for i, pkt := range obs.pkts {
			if obs.oc.lb != nil && i == len(obs.pkts)/2 {
				// Mid-stream backend failure: its conn-tracked flows
				// (roughly a third — the paper sets events on 20% of
				// flows) get rerouted by their events.
				if err := obs.oc.lb.FailBackend(0); err != nil {
					return nil, err
				}
			}
			m, err := p.Process(pkt)
			if err != nil {
				return nil, err
			}
			obs.outs = append(obs.outs, outcome{verdict: m.Result.Verdict})
		}
		return obs, nil
	}
	base, err := run(cfg.options(core.BaselineOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	sbox, err := run(cfg.options(core.DefaultOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	same := true
	for i := 0; i < len(base.pkts) && same; i++ {
		same = packetDiff(base.pkts[i], sbox.pkts[i], base.outs[i], sbox.outs[i]) == ""
	}
	counters, logs := stateDiff(base.oc, sbox.oc)
	return EquivCheck{
		Name:   fmt.Sprintf("Real-world chain %d (mid-stream events)", chain),
		Passed: same && counters == "" && logs == "",
		Detail: fmt.Sprintf("outputs=%v counters=%v snortLogs=%v (%d pkts)",
			same, counters == "", logs == "", len(base.pkts)),
	}, nil
}
