package main

// metricDef is one metric a run prints.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, as in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
}

// perLayer lists the traced run's metrics, as in BENCHMARK.json.
var perLayer = []metricDef{
	{"live_heap_mib", "MiB"},
	{"core.rlock_ns", "ns"},
	{"core.lock_ns", "ns"},
	{"core.conflict_ratio", "ratio"},
	{"core.allocs_per_op", "allocs/op"},
	{"ebr.lease_ns", "ns"},
	{"pfs.read_ns", "ns"},
	{"pfs.write_ns", "ns"},
	{"pfs.append_ns", "ns"},
	{"pfs.truncate_ns", "ns"},
	{"pfs.wal.syncs_per_write", "syncs/write"},
	{"pfs.wal.log_bytes_per_user_byte", "B/B"},
	{"pfs.wal.writes_per_write", "writes/write"},
	{"rangestore.codec.encode_ns", "ns"},
	{"rangestore.codec.decode_ns", "ns"},
	{"rangestore.server.pipe_rtt_ns", "ns"},
	{"rangestore.server.responses_per_flush", "resp/flush"},
	{"rangestore.net.bytes_per_op", "B/op"},
	{"rangestore.quorum.ack_ns", "ns"},
	{"rangestore.repl.bytes_per_user_byte", "B/B"},
	{"ccache.hit_ratio", "ratio"},
	{"ccache.invalidations_per_write", "inval/write"},
	{"ccache.evictions", "count"},
	{"ccache.hit_ns", "ns"},
	{"rangestore.failover.reconnects", "count"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
