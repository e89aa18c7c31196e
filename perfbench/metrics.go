package main

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string // "host", "virtual" or "" for a count
}

// endToEnd are the metrics every workload reports on every untraced
// run: host-clock medians over the run's repetitions. They are the
// figures a later change is judged by.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "host"},
	{"run_s", "s", "lower", "host"},
	{"max_rss_mb", "MiB", "lower", "host"},
}

// virtualMetrics are the client- and paper-facing figures in virtual
// time. They are deterministic for a seed: every repetition must
// reproduce them exactly, or the run counts a failure. Each workload
// reports the ones that apply to it (see README.md).
var virtualMetrics = []metricDef{
	{"np", "ratio", "lower", "virtual"},
	{"client_p50_us", "us", "lower", "virtual"},
	{"client_p99_us", "us", "lower", "virtual"},
	{"blackout_us", "us", "lower", "virtual"},
	{"max_rate_rps", "req/s", "higher", "virtual"},
}

// perLayer are the metrics of the traced run. Host-clock figures come
// from spans around calls into a layer or from a layer probe; counts
// and vt.* figures come from the traced repetition's results. A
// workload that does not drive a layer reports 0 for that layer's
// counts (see README.md).
var perLayer = []metricDef{
	{"machine.run_ns_per_instr", "ns", "lower", "host"},
	{"machine.new_us", "us", "lower", "host"},
	{"machine.new_cow_us", "us", "lower", "host"},
	{"machine.alloc_per_shard_bytes", "bytes", "lower", "host"},
	{"hypervisor.bare_ns_per_instr", "ns", "lower", "host"},
	{"hypervisor.epoch_us", "us", "lower", "host"},
	{"hypervisor.epochs", "count", "lower", ""},
	{"hypervisor.priv_simulated", "count", "lower", ""},
	{"hypervisor.env_simulated", "count", "lower", ""},
	{"hypervisor.resident_sims", "count", "higher", ""},
	{"hypervisor.adaptive_cuts", "count", "lower", ""},
	{"sim.switch_ns", "ns", "lower", "host"},
	{"sim.event_ns", "ns", "lower", "host"},
	{"replication.msgs_per_epoch", "count", "lower", ""},
	{"replication.bytes_per_epoch", "bytes", "lower", ""},
	{"replication.acks", "count", "lower", ""},
	{"replication.host_us_per_epoch", "us", "lower", "host"},
	{"session.boot_us", "us", "lower", "host"},
	{"snapshot.save_ms", "ms", "lower", "host"},
	{"snapshot.restore_ms", "ms", "lower", "host"},
	{"snapshot.bytes", "bytes", "lower", ""},
	{"chaos.bare_ms", "ms", "lower", "host"},
	{"fleet.shard_ms_p50", "ms", "lower", "host"},
	{"fleet.shard_ms_max", "ms", "lower", "host"},
	{"sched.efficiency", "ratio", "higher", "host"},
	{"clientsim.retransmits", "count", "lower", ""},
	{"vt.hypervisor_us", "us", "lower", "virtual"},
	{"vt.ack_wait_us", "us", "lower", "virtual"},
	{"vt.io_gate_wait_us", "us", "lower", "virtual"},
	{"vt.delivery_delay_us", "us", "lower", "virtual"},
	{"vt.commit_p50_us", "us", "lower", "virtual"},
	{"vt.residual_us", "us", "lower", "virtual"},
	{"host_share.machine", "share", "lower", "host"},
	{"host_share.sim", "share", "lower", "host"},
	{"host_share.hypervisor", "share", "lower", "host"},
	{"host_share.replication", "share", "lower", "host"},
	{"host_share.runtime", "share", "lower", "host"},
	{"host_share.other", "share", "lower", "host"},
	{"trace.overhead_s", "s", "lower", "host"},
}
