// Command benchtable prints the two evaluation tables that bench/ does not
// report under a named metric:
//
//	benchtable -limits      §4.4 accounting-precision experiments
//	benchtable -qos         scheduler QoS: the round-robin baseline beside the governed legs
//	benchtable -all         both
//
// Table 1 and Fig 1–3 come from bench/ (README.md, "Where each paper number
// comes from"); a table that a BENCHMARK.json metric reports does not
// belong here.
package main

import (
	"flag"
	"fmt"
	"os"

	"ijvm/internal/limits"
	"ijvm/internal/sched"
	"ijvm/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtable:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("benchtable", flag.ContinueOnError)
	lim := fs.Bool("limits", false, "§4.4 accounting-precision experiments")
	qos := fs.Bool("qos", false, "scheduler QoS: adversarial SLO legs (tail latency under attack)")
	all := fs.Bool("all", false, "run both")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *all {
		*lim, *qos = true, true
	}
	if !*lim && !*qos {
		fs.Usage()
		return fmt.Errorf("select at least one table")
	}
	if *lim {
		if err := limitsTable(); err != nil {
			return err
		}
	}
	if *qos {
		if err := qosTable(); err != nil {
			return err
		}
	}
	return nil
}

// --- §4.4 -------------------------------------------------------------------------

func limitsTable() error {
	fmt.Println("§4.4: limits of the resource accounting")
	fmt.Println()

	callee, caller, err := limits.CPUDistribution(200_000)
	if err != nil {
		return err
	}
	fmt.Printf("  1. CPU sampling over a 200k cross-bundle call loop:\n")
	fmt.Printf("     callee charged %.1f%%, caller charged %.1f%% (paper: ~75%% / ~25%%)\n\n", callee, caller)

	svcGCs, drvGCs, err := limits.GCAttribution(200_000)
	if err != nil {
		return err
	}
	fmt.Printf("  2. Collections from per-call allocations inside the callee:\n")
	fmt.Printf("     callee charged %d GCs, caller charged %d (paper: charged to the callee)\n\n", svcGCs, drvGCs)

	svcBytes, drvBytes, err := limits.SharedMemoryCharge(100_000)
	if err != nil {
		return err
	}
	fmt.Printf("  3. Large object returned by a service and retained by its caller:\n")
	fmt.Printf("     service charged %d bytes, caller charged %d bytes (paper: charged to the callers)\n\n",
		svcBytes, drvBytes)
	return nil
}

// --- Scheduler QoS ----------------------------------------------------------------

// qosGovernor is the tuned governor the SLO legs and the BenchmarkQoS_*
// benchmarks share: small windows so escalation happens early in short
// runs, and thresholds low enough that the §4.3-style attackers trip
// them while the tenants never do.
func qosGovernor() *sched.GovernorConfig {
	return &sched.GovernorConfig{
		// Window ≫ slice (16 slices) and ≫ one tenant request: a bursty
		// interactive request is a small fraction of any window, while a
		// dominance attacker is hot in every window.
		WindowInstrs:        131072,
		SleepersMax:         8,
		AllocBytesPerWindow: 64 << 10,
		// Two consecutive hot windows before deprioritization: attackers
		// are hot every window, tenants only in the isolated window their
		// request bursts through.
		DeprioritizeAfter: 2,
		ThrottleAfter:     3,
	}
}

// qosTable runs the adversarial SLO harness's three legs — no-attack
// baseline, attacked round-robin (the starvation baseline), attacked
// proportional+governed — and prints the tail-latency and goodput
// comparison the acceptance criterion is about: the governed leg's p99
// stays within a small factor of the no-attack baseline while the
// round-robin leg degrades with the attacker count.
func qosTable() error {
	fmt.Println("Scheduler QoS: tenant SLOs under the §4.3 attack suite")
	fmt.Println("(4 tenants, 25 req each; attackers: spin, allocflood, monitorhog, callflood)")
	fmt.Println()

	// One worker: the virtual clock then advances only by what the
	// scheduler chose to interleave, so the latency ratios measure the
	// scheduling policy itself identically on any host CPU count (with
	// N workers the clock advances by the other workers' concurrent
	// progress, scaling the attacked legs by min(N, cores)).
	base := workloads.SLOConfig{
		Tenants:           4,
		RequestsPerTenant: 25,
		WorkIters:         2000,
		Workers:           1,
	}
	type leg struct {
		name string
		cfg  workloads.SLOConfig
	}
	attacked := base
	attacked.Attackers = workloads.AllAttackers()
	rr := attacked
	rr.RoundRobin = true
	governed := attacked
	governed.Governed = true
	governed.Governor = qosGovernor()
	legs := []leg{
		{"no attack, proportional+governed", func() workloads.SLOConfig {
			c := base
			c.Governed = true
			c.Governor = qosGovernor()
			return c
		}()},
		{"attacked, round-robin ungoverned", rr},
		{"attacked, proportional+governed", governed},
	}

	fmt.Println("(latencies in virtual ms: VM clock ticks / 1000, stamped at thread spawn/finish)")
	fmt.Printf("  %-34s %10s %10s %10s %12s %8s\n", "leg", "p50", "p99", "p999", "goodput", "failed")
	for _, l := range legs {
		res, err := workloads.RunSLO(l.cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %-34s %10s %10s %10s %8.0f/s %8d\n",
			l.name, workloads.VirtualMS(res.P50), workloads.VirtualMS(res.P99), workloads.VirtualMS(res.P999),
			res.Goodput, res.Failed)
		if len(res.Attackers) > 0 {
			fmt.Printf("  %-34s tenant/attacker instrs %d/%d", "", res.TenantInstructions, res.AttackerInstructions)
			if l.cfg.Governed {
				fmt.Printf("; governor %+v", res.Governor)
			}
			fmt.Println()
			for _, f := range res.Attackers {
				fmt.Printf("  %-36s %-10s stage=%-14s killed=%-5v instrs=%d\n", "", f.Kind, f.Stage, f.Killed, f.Instructions)
			}
		}
	}
	fmt.Println()
	return nil
}
