package harness

import (
	"bytes"
	"fmt"

	"github.com/fastpathnfv/speedybox/internal/core"
	"github.com/fastpathnfv/speedybox/internal/nf/maglev"
	"github.com/fastpathnfv/speedybox/internal/nf/monitor"
	"github.com/fastpathnfv/speedybox/internal/nf/snort"
	"github.com/fastpathnfv/speedybox/internal/packet"
	"github.com/fastpathnfv/speedybox/internal/platform"
	"github.com/fastpathnfv/speedybox/internal/trace"
)

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
		status := "PASS"
		if !c.Passed {
			status = "FAIL"
		}
		t.row(c.Name, status, c.Detail)
	}
	return t.String()
}

// RunEquivalence executes all three case studies.
func RunEquivalence(cfg Config) (*EquivResult, error) {
	cfg = cfg.withDefaults(50)
	res := &EquivResult{}

	snortCheck, err := equivSnortBranches(cfg)
	if err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, snortCheck)

	maglevCheck, err := equivMaglevEvent()
	if err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, maglevCheck)

	for chain := 1; chain <= 2; chain++ {
		c, err := equivRealWorldChain(cfg, chain)
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
	run := func(opts core.Options) ([]snort.LogEntry, error) {
		ids, err := snort.New("snort", snort.DefaultRules())
		if err != nil {
			return nil, err
		}
		p, err := buildPlatform(PlatformBESS, func() ([]core.NF, error) {
			return []core.NF{ids}, nil
		}, opts)
		if err != nil {
			return nil, err
		}
		defer func() { _ = p.Close() }()
		if _, err := platform.RunBatch(p, tr.Packets(), max(cfg.Batch, 1), nil); err != nil {
			return nil, err
		}
		return ids.Logs(), nil
	}
	base, err := run(cfg.options(core.BaselineOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	sbox, err := run(cfg.options(core.DefaultOptions()))
	if err != nil {
		return EquivCheck{}, err
	}
	check := EquivCheck{Name: "Snort Pass/Alert/Log branches"}
	if len(base) == 0 {
		check.Detail = "no logs produced; vacuous"
		return check, nil
	}
	same := len(base) == len(sbox)
	if same {
		for i := range base {
			if base[i].RuleID != sbox[i].RuleID || base[i].Type != sbox[i].Type {
				same = false
				break
			}
		}
	}
	check.Passed = same
	check.Detail = fmt.Sprintf("%d log entries, identical=%v", len(base), same)
	return check, nil
}

// equivMaglevEvent is §VII-C2: a 10-packet flow whose backend fails
// after the fifth packet; packets 1-5 must carry ip1, packets 6-10
// ip2, and the payloads must be preserved.
func equivMaglevEvent() (EquivCheck, error) {
	lb, err := maglev.New(maglev.Config{
		Name: "maglev",
		Backends: []maglev.Backend{
			{Name: "b0", IP: [4]byte{192, 168, 9, 1}, Port: 80},
			{Name: "b1", IP: [4]byte{192, 168, 9, 2}, Port: 80},
		},
	})
	if err != nil {
		return EquivCheck{}, err
	}
	p, err := buildPlatform(PlatformBESS, func() ([]core.NF, error) {
		return []core.NF{lb}, nil
	}, core.DefaultOptions())
	if err != nil {
		return EquivCheck{}, err
	}
	defer func() { _ = p.Close() }()

	mkPkt := func(i int) *packet.Packet {
		return packet.MustBuild(packet.Spec{
			SrcIP: [4]byte{10, 0, 0, 1}, DstIP: [4]byte{100, 0, 0, 9},
			SrcPort: 7777, DstPort: 80, Proto: packet.ProtoTCP,
			TCPFlags: packet.TCPFlagACK, Seq: uint32(i),
			Payload: []byte(fmt.Sprintf("pkt-%02d", i)),
		})
	}
	var dips [][4]byte
	var payloadsOK = true
	failedIdx := -1
	for i := 1; i <= 10; i++ {
		if i == 6 && failedIdx >= 0 {
			if err := lb.FailBackend(failedIdx); err != nil {
				return EquivCheck{}, err
			}
		}
		pkt := mkPkt(i)
		if _, err := p.Process(pkt); err != nil {
			return EquivCheck{}, err
		}
		if i == 1 {
			// Identify which backend the flow pinned so we can fail it.
			switch pkt.DstIP() {
			case [4]byte{192, 168, 9, 1}:
				failedIdx = 0
			case [4]byte{192, 168, 9, 2}:
				failedIdx = 1
			}
		}
		dips = append(dips, pkt.DstIP())
		if !bytes.Equal(pkt.Payload(), []byte(fmt.Sprintf("pkt-%02d", i))) {
			payloadsOK = false
		}
	}
	check := EquivCheck{Name: "Maglev mid-stream event (pkt 6 of 10)"}
	ip1 := dips[0]
	switchedAt := -1
	consistent := true
	for i, d := range dips {
		if d != ip1 {
			if switchedAt == -1 {
				switchedAt = i + 1
			}
			if d != dips[len(dips)-1] {
				consistent = false
			}
		} else if switchedAt != -1 {
			consistent = false // flipped back
		}
	}
	check.Passed = switchedAt == 6 && consistent && payloadsOK && dips[9] != ip1
	check.Detail = fmt.Sprintf("DIP switched at packet %d (want 6), payloads preserved=%v", switchedAt, payloadsOK)
	return check, nil
}

// equivRealWorldChain is §VII-C3: a trace through a real-world chain,
// with Maglev backend failure injected mid-stream on Chain 1;
// packet outputs, Monitor counters and Snort logs must match between
// the original chain and SpeedyBox.
func equivRealWorldChain(cfg Config, chain int) (EquivCheck, error) {
	tr, err := trace.Generate(trace.Config{
		Seed: cfg.Seed + int64(chain), Flows: cfg.Flows,
		AlertFraction: 0.1, LogFraction: 0.1,
		Interleave: true,
	})
	if err != nil {
		return EquivCheck{}, err
	}
	type observation struct {
		outs     [][]byte
		drops    []bool
		counters monitor.Counters
		logs     int
	}
	run := func(opts core.Options) (*observation, error) {
		var mon *monitor.Monitor
		var ids *snort.Snort
		var lb *maglev.Maglev
		mk := func() ([]core.NF, error) {
			var (
				nfs []core.NF
				err error
			)
			switch chain {
			case 1:
				nfs, err = Chain1()
			default:
				nfs, err = Chain2()
			}
			if err != nil {
				return nil, err
			}
			for _, nf := range nfs {
				switch v := nf.(type) {
				case *monitor.Monitor:
					mon = v
				case *snort.Snort:
					ids = v
				case *maglev.Maglev:
					lb = v
				}
			}
			return nfs, nil
		}
		p, err := buildPlatform(PlatformBESS, mk, opts)
		if err != nil {
			return nil, err
		}
		defer func() { _ = p.Close() }()
		obs := &observation{}
		pkts := tr.Packets()
		failAt := len(pkts) / 2
		for i, pkt := range pkts {
			if lb != nil && i == failAt {
				// Mid-stream backend failure: its conn-tracked flows
				// (roughly a third — the paper sets events on 20% of
				// flows) get rerouted by their events.
				if err := lb.FailBackend(0); err != nil {
					return nil, err
				}
			}
			if _, err := p.Process(pkt); err != nil {
				return nil, err
			}
			obs.outs = append(obs.outs, append([]byte(nil), pkt.Data()...))
			obs.drops = append(obs.drops, pkt.Dropped())
		}
		if mon != nil {
			obs.counters = mon.Totals()
		}
		if ids != nil {
			obs.logs = len(ids.Logs())
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
	check := EquivCheck{Name: fmt.Sprintf("Real-world chain %d (mid-stream events)", chain)}
	same := true
	for i := range base.outs {
		if base.drops[i] != sbox.drops[i] || !bytes.Equal(base.outs[i], sbox.outs[i]) {
			same = false
			break
		}
	}
	countersOK := base.counters == sbox.counters
	logsOK := base.logs == sbox.logs
	check.Passed = same && countersOK && logsOK
	check.Detail = fmt.Sprintf("outputs=%v counters=%v snortLogs=%v (%d pkts)",
		same, countersOK, logsOK, len(base.outs))
	return check, nil
}
