package main

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced repetitions. README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the per-layer metrics of a traced run. A workload reports
// 0 for a layer it does not reach. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{"topology.build_s", "s", "lower"},

	{"routing.setup_builds", "count", "lower"},
	{"routing.run_builds", "count", "lower"},
	{"routing.hits", "count", "higher"},
	{"routing.hit_ratio", "ratio", "higher"},
	{"routing.build_ms", "ms", "lower"},

	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.self_s", "s", "lower"},

	{"netsim.pkts_sent", "count", "higher"},
	{"netsim.pkts_delivered", "count", "higher"},
	{"netsim.queue_drops", "count", "lower"},

	{"device.seen", "count", "higher"},
	{"device.redirected", "count", "lower"},
	{"device.discarded", "count", "higher"},
	{"device.deploy_s", "s", "lower"},

	{"hybrid.clients_s", "s", "lower"},
	{"hybrid.world_s", "s", "lower"},
	{"hybrid.start_s", "s", "lower"},
	{"hybrid.emitted", "count", "higher"},
	{"hybrid.fluid_cut", "count", "higher"},

	{"nms.snapshot_ms", "ms", "lower"},
	{"nms.cpu_s", "s", "lower"},
	{"telemetry.report_ms", "ms", "lower"},
	{"defense.step_ms", "ms", "lower"},
	{"defense.transitions", "count", "lower"},

	{"tcsp.cpu_s", "s", "lower"},
	{"tcsp.registers", "count", "higher"},
	{"tcsp.deploys", "count", "higher"},
	{"tcsp.controls", "count", "higher"},
	{"tcsp.reports", "count", "higher"},
	{"tcsp.ingest_drops", "count", "lower"},
	{"auth.sign_ms", "ms", "lower"},

	{"ctl.p50_ms", "ms", "lower"},
	{"ctl.p99_ms", "ms", "lower"},
	{"ctl.tail_quantile", "ratio", "higher"},
	{"ctl.samples", "count", "higher"},
	{"ctl.write_p99_ms", "ms", "lower"},
	{"ctl.read_p99_ms", "ms", "lower"},
	{"ctl.max_ops_s", "ops/s", "higher"},
	{"ctl.register.p50_ms", "ms", "lower"},
	{"ctl.register.p99_ms", "ms", "lower"},
	{"ctl.install.p50_ms", "ms", "lower"},
	{"ctl.install.p99_ms", "ms", "lower"},
	{"ctl.update.p50_ms", "ms", "lower"},
	{"ctl.update.p99_ms", "ms", "lower"},
	{"ctl.read.p50_ms", "ms", "lower"},
	{"ctl.read.p99_ms", "ms", "lower"},
	{"ctl.remove.p50_ms", "ms", "lower"},
	{"ctl.remove.p99_ms", "ms", "lower"},
	{"ctl.step1.offered_ops_s", "ops/s", "higher"},
	{"ctl.step1.p99_ms", "ms", "lower"},
	{"ctl.step1.backlog", "count", "lower"},
	{"loadgen.step1.late_ms", "ms", "lower"},
	{"ctl.step2.offered_ops_s", "ops/s", "higher"},
	{"ctl.step2.p99_ms", "ms", "lower"},
	{"ctl.step2.backlog", "count", "lower"},
	{"loadgen.step2.late_ms", "ms", "lower"},
	{"ctl.step3.offered_ops_s", "ops/s", "higher"},
	{"ctl.step3.p99_ms", "ms", "lower"},
	{"ctl.step3.backlog", "count", "lower"},
	{"loadgen.step3.late_ms", "ms", "lower"},
	{"ctl.step4.offered_ops_s", "ops/s", "higher"},
	{"ctl.step4.p99_ms", "ms", "lower"},
	{"ctl.step4.backlog", "count", "lower"},
	{"loadgen.step4.late_ms", "ms", "lower"},
	{"loadgen.cpu_s", "s", "lower"},

	{"gc.alloc_mb", "MB", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"gc.peak_heap_mb", "MB", "lower"},

	{"trace.spans", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func layerDef(name string) metricDef {
	for _, m := range perLayer {
		if m.Name == name {
			return m
		}
	}
	return metricDef{Name: name}
}
