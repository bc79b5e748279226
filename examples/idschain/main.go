// IDS pipeline: the Figure 6 chain (Snort IDS followed by a Monitor)
// on both platform models. Snort's payload inspection is a READ-class
// state function and the Monitor's counting is IGNORE-class, so per
// Table I the consolidated fast path runs them in parallel — while the
// IDS logs and per-flow counters stay byte-identical to the original
// chain.
package main

import (
	"fmt"
	"log"

	speedybox "github.com/fastpathnfv/speedybox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tr, err := speedybox.GenerateTrace(speedybox.TraceConfig{
		Seed: 7, Flows: 150,
		AlertFraction: 0.1, LogFraction: 0.15,
		Interleave: true,
	})
	if err != nil {
		return err
	}

	type outcome struct {
		label    string
		alerts   int
		counters speedybox.MonitorCounters
		latency  float64
		rate     float64
	}
	var outcomes []outcome

	for _, platformKind := range []string{"BESS", "OpenNetVM"} {
		for _, mode := range []struct {
			label string
			opts  speedybox.Options
		}{
			{platformKind, speedybox.BaselineOptions()},
			{platformKind + " w/ SBox", speedybox.DefaultOptions()},
		} {
			ids, err := speedybox.NewSnort("snort", speedybox.DefaultSnortRules())
			if err != nil {
				return err
			}
			mon, err := speedybox.NewMonitor("monitor")
			if err != nil {
				return err
			}
			chain := []speedybox.NF{ids, mon}
			var p *speedybox.Platform
			if platformKind == "BESS" {
				p, err = speedybox.NewBESS(chain, mode.opts)
			} else {
				p, err = speedybox.NewONVM(chain, mode.opts)
			}
			if err != nil {
				return err
			}
			res, err := speedybox.Run(p, tr.Packets())
			if cerr := p.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			outcomes = append(outcomes, outcome{
				label:    mode.label,
				alerts:   len(ids.Logs()),
				counters: mon.Totals(),
				latency:  res.MeanLatencyMicros(),
				rate:     res.RateMpps(),
			})
		}
	}

	fmt.Println("variant             latency(µs)  rate(Mpps)  IDS logs  monitored pkts")
	for _, o := range outcomes {
		fmt.Printf("%-18s  %10.3f  %10.3f  %8d  %14d\n",
			o.label, o.latency, o.rate, o.alerts, o.counters.Packets)
	}
	// Equivalence: IDS logs and counters must match within a platform.
	for i := 0; i+1 < len(outcomes); i += 2 {
		a, b := outcomes[i], outcomes[i+1]
		if a.alerts != b.alerts || a.counters != b.counters {
			return fmt.Errorf("equivalence violated between %q and %q", a.label, b.label)
		}
	}
	fmt.Println("\nIDS logs and per-flow counters identical with and without SpeedyBox.")
	return nil
}
