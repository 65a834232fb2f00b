package main

import "fmt"

// metricDef names one metric the harness emits. The tables below are the
// source of truth; BENCHMARK.json repeats them for the acceptance driver
// and the smoke test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// defaultBound is the bound -compare applies to per-layer metrics, which
// have none of their own. The end-to-end bounds below are what the
// recording host allows, not what the VM deserves: absolute speeds spread
// 1-3 % over ten calm runs and up to 11 % while the host's neighbours are
// busy, even after calibration, so they get the widest bound the contract
// permits; the Isolated/Shared ratio never spread more than 2.7 %
// (README.md, "Recorded spreads").
const defaultBound = 0.10

// endToEnd lists the metrics a user of the VM sees. The acceptance driver
// wants every run to print every end-to-end metric, so each has one
// meaning per workload (README.md has the table):
//
//	guest_minstr_per_s  guest instructions per second on the compute leg
//	isolation_overhead  Isolated / Shared median time of the same guest work
//	ops_per_s           the workload's unit of work per second
//	op_p50_us           median latency of the workload's unit operation
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"guest_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"isolation_overhead", "ratio", "lower", 0.08},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
}

// specPrograms are the guest programs of spec_compute, in presentation
// order: the seven SPEC JVM98 analogues, Fig 1's intra-isolate call and
// static access, and the harness's megamorphic call site.
var specPrograms = []string{
	"compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack",
	"intra", "static", "megacall",
}

// perLayer lists the metrics of single layers (recorded around calls into
// each package's public functions, with tracing on) followed by the
// workload-specific end-to-end numbers that cannot be in endToEnd because
// only one workload measures them. A traced run prints all of them; a
// layer the workload bypasses reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("interp.ns_per_instr", "ns", "lower")
	for _, p := range specPrograms {
		add(fmt.Sprintf("interp.prog.%s.iso_ms", p), "ms", "lower")
		add(fmt.Sprintf("interp.prog.%s.shared_ms", p), "ms", "lower")
	}
	add("interp.invoke_mono_ns", "ns", "lower")
	add("interp.invoke_poly4_ns", "ns", "lower")
	add("interp.invoke_mega8_ns", "ns", "lower")
	add("interp.static_access_ns", "ns", "lower")
	add("interp.tier_warmup_ms", "ms", "lower")
	add("interp.migrate_ns", "ns", "lower")
	add("interp.call_root_us", "us", "lower")
	add("interp.capture_snapshot_ms", "ms", "lower")
	add("interp.clone_us", "us", "lower")
	add("interp.kill_us", "us", "lower")
	add("interp.free_isolate_us", "us", "lower")
	add("interp.serve_cold_us", "us", "lower")
	add("interp.serve_clone_us", "us", "lower")
	add("core.percall_accounting_ratio", "ratio", "lower")
	add("core.snapshots_us", "us", "lower")
	add("heap.alloc_ns_per_obj", "ns", "lower")
	add("heap.gc_cycles", "1/Mobj", "lower")
	add("heap.sweep_share", "ratio", "lower")
	add("heap.barrier_tax", "ratio", "lower")
	add("heap.barrier_records", "1/kstore", "lower")
	add("heap.mark_step_us_per_kobj", "us", "lower")
	add("heap.full_stw_pause_us", "us", "lower")
	add("heap.finish_cycle_us", "us", "lower")
	add("heap.teardown_gc_us", "us", "lower")
	add("sched.w1_vs_sequential", "ratio", "lower")
	add("sched.w2_speedup", "ratio", "higher")
	add("sched.governor_ticks", "count", "higher")
	add("sched.governor_throttles", "count", "higher")
	add("sched.governor_kills", "count", "higher")
	add("sched.attacker_instr_share", "ratio", "lower")
	add("rpc.submit_us", "us", "lower")
	add("rpc.wait_us", "us", "lower")
	add("rpc.deepcopy_us_per_kelem", "us", "lower")
	add("rpc.saturated_share", "ratio", "lower")
	add("rpc.serial_calls_per_s", "1/s", "higher")
	add("rpc.rmi_call_us", "us", "lower")
	add("serve.acquire_us", "us", "lower")
	add("serve.release_us", "us", "lower")
	add("serve.saturated_rejects", "count", "lower")
	add("serve.shed", "count", "lower")
	add("serve.clone_failures", "count", "lower")
	add("serve.refill_lag_us", "us", "lower")
	add("loader.define_all_us", "us", "lower")
	add("loader.clinit_ms", "ms", "lower")
	add("osgi.install_start_ms", "ms", "lower")
	add("osgi.felix_mem_overhead", "ratio", "lower")
	add("osgi.equinox_mem_overhead", "ratio", "lower")
	for _, l := range layers {
		add(l+".self_share", "ratio", "lower")
	}
	add("trace_overhead", "ratio", "lower")
	// Workload-specific end-to-end numbers (see README.md, "Demoted").
	add("alloc_mobj_per_s", "Mobj/s", "higher")
	add("store_marking_minstr_per_s", "Minstr/s", "higher")
	add("call_ijvm_ns", "ns", "lower")
	add("call_link_p50_us", "us", "lower")
	add("call_link_p99_us", "us", "lower")
	add("link_calls_per_s", "1/s", "higher")
	add("payload_calls_per_s", "1/s", "higher")
	add("frozen_calls_per_s", "1/s", "higher")
	add("spawn_cold_p50_ms", "ms", "lower")
	add("spawn_clone_p50_us", "us", "lower")
	add("sessions_per_s", "1/s", "higher")
	add("serve_p99_ticks", "ticks", "lower")
	add("attacked_p99_ratio", "ratio", "lower")
	add("attacked_sessions_ratio", "ratio", "higher")
	return out
}

// contractMetrics is the set a run must print for the acceptance driver:
// every end-to-end metric untraced, every per-layer metric traced.
func contractMetrics(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// lookupMetric finds a metric by name; kind is "end_to_end", "per_layer",
// or "" when no table has it.
func lookupMetric(name string) (def metricDef, kind string) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, "end_to_end"
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, "per_layer"
		}
	}
	return metricDef{}, ""
}
