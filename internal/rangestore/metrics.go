// Server-side metrics wiring: what the live server measures and under
// which names. The obs registry is the single source all three exposure
// paths read from — the STATS protocol op, cmd/rangestored's /metrics
// endpoint, and tests via Server.MetricsRegistry().
//
// Naming scheme (units are in the name, Prometheus-style):
//
//	rs_*        server request loop and placement
//	rangelock_* the shard's range-lock node arena
//	ebr_*       the shard's epoch-based reclamation domain
//	wal_*       write-ahead log (fsync, group commit, checkpoints)
//	repl_*      replication, both leader-side (lag, ack waits) and
//	            follower-side (reconnects, bootstraps, applied records)
//
// Per-shard series carry a {shard="N"} label; per-op-class series carry
// {op="read"} etc. Counters marked _total are monotone; histograms
// ending in _ns observe nanoseconds, in _bytes byte sizes, in _records
// record counts.
//
// The replication lag gauges deserve a caveat: LSNs are drawn from one
// store-global counter interleaved across shards, so
// repl_lag_records{shard} — leader frontier minus acked frontier — is
// an upper bound on the shard's outstanding records, not an exact
// count. It is exact at 0 (acked == frontier means fully drained),
// which is what alerting and the e2e drain test key on.
// repl_lag_bytes is bounded the same way: the acked byte frontier only
// advances when a shard is fully drained, so between drains it reports
// the bytes appended since the follower last caught up.
package rangestore

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// latencySampleMask drives the 1-in-16 per-connection sampling of
// rs_request_ns (see conn.handle): request counts and byte volumes are
// exact, the latency distribution is a systematic sample.
const latencySampleMask = 15

// serverMetrics holds the server's pre-resolved hot-path handles into
// its obs registry. A nil *serverMetrics means metrics are disabled;
// the individual handles are nil-safe per obs's contract.
type serverMetrics struct {
	reg *obs.Registry

	reqNs     [numOps]*obs.Histogram // per-op service time (decode+exec+encode)
	dataBytes [numOps]*obs.Counter   // payload bytes (READ out, WRITE/APPEND in)
	batchSize *obs.Histogram         // requests served per batch
	inflight  *obs.Gauge             // batches being served right now
	openConns *obs.Gauge
	conns     *obs.Counter

	migrations     *obs.Counter
	rebalanceMoves *obs.Counter

	snapshotsServed *obs.Counter // FOLLOW sessions bootstrapped from checkpoint
	followStreams   *obs.Gauge   // live leader-side replication streams
	elections       *obs.Counter // elections this node has won (promoteSelf)
}

// WithMetrics has the server record into reg — the option cmd/rangestored
// uses to share one registry between the server, /metrics and STATS.
// Without it (and without WithoutMetrics) the server creates its own.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = &serverMetrics{reg: reg} }
}

// WithoutMetrics disables metrics entirely — the no-op-registry
// baseline the overhead benchmark compares against.
func WithoutMetrics() ServerOption {
	return func(s *Server) { s.noMetrics = true }
}

// WithLogger routes the server's structured logs (and the slow-batch
// tracer's output) through l. A nil logger (the default) discards.
func WithLogger(l *obs.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// WithSlowTrace arms the slow-batch tracer: any batch whose total
// service time (first decode to response flush) reaches d is logged
// with a structured per-op breakdown (see trace.go). d == 0 traces
// every batch; a negative d (the default) disables tracing.
func WithSlowTrace(d time.Duration) ServerOption {
	return func(s *Server) { s.slowTrace = d }
}

// MetricsRegistry returns the registry the server records into, nil
// when metrics are disabled.
func (s *Server) MetricsRegistry() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg
}

// wireMetrics resolves the hot-path handles and registers the
// func-backed series over state the server already tracks (request
// tallies, placement version, WAL frontiers, replication gates). Called
// once from NewServerSharded after the options ran, so it sees the
// final journal/replica configuration.
func (s *Server) wireMetrics() {
	m := s.metrics
	if m == nil {
		return
	}
	reg := m.reg
	for i := 0; i < numOps; i++ {
		op := OpCode(i + 1)
		label := fmt.Sprintf(`{op=%q}`, opLabel(op))
		c := &s.ops[i]
		reg.CounterFunc("rs_requests_total"+label, c.Load)
		m.reqNs[i] = reg.Histogram("rs_request_ns" + label)
		switch op {
		case OpRead, OpWrite, OpAppend:
			m.dataBytes[i] = reg.Counter("rs_data_bytes_total" + label)
		}
	}
	for i := range s.shardOps {
		c := &s.shardOps[i].n
		reg.CounterFunc(fmt.Sprintf(`rs_shard_requests_total{shard="%d"}`, i), c.Load)
	}
	// The lock domain's node working set and the retired nodes awaiting
	// adoption, read at snapshot time; a lock variant without a domain
	// registers neither.
	for i := 0; i < s.store.NumShards(); i++ {
		if dom := s.store.Shard(i).LockDomain(); dom != nil {
			shard := fmt.Sprintf(`{shard="%d"}`, i)
			reg.GaugeFunc("rangelock_arena_nodes"+shard, dom.ArenaNodes)
			reg.GaugeFunc("ebr_orphaned"+shard, dom.Orphaned)
		}
	}
	m.batchSize = reg.Histogram("rs_batch_requests")
	m.inflight = reg.Gauge("rs_inflight_batches")
	m.openConns = reg.Gauge("rs_open_conns")
	m.conns = reg.Counter("rs_conns_total")
	m.migrations = reg.Counter("rs_migrations_total")
	m.rebalanceMoves = reg.Counter("rs_rebalance_moves_total")
	m.snapshotsServed = reg.Counter("repl_snapshots_served_total")
	m.followStreams = reg.Gauge("repl_follow_streams")
	m.elections = reg.Counter("elections_total")
	reg.GaugeFunc("rs_placement_version", func() int64 {
		return int64(s.store.PlacementVersion())
	})
	reg.GaugeFunc("rs_role_follower", func() int64 {
		if s.notLeader.Load() {
			return 1
		}
		return 0
	})
	if s.journal != nil {
		s.journal.setMetrics(reg)
	}
	if s.replica != nil {
		s.replica.setMetrics(reg)
	}
}

// opLabel is the lower-case label value for an op class.
func opLabel(op OpCode) string {
	switch op {
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAppend:
		return "append"
	case OpTruncate:
		return "truncate"
	case OpStat:
		return "stat"
	case OpMigrate:
		return "migrate"
	case OpShards:
		return "shards"
	case OpRecovered:
		return "recovered"
	case OpFollow:
		return "follow"
	case OpPromote:
		return "promote"
	case OpStats:
		return "stats"
	case OpState:
		return "state"
	case OpVote:
		return "vote"
	default:
		return "unknown"
	}
}

// statsSnapshot answers the STATS op: the registry's snapshot, or an
// empty one when metrics are disabled (a typed nothing, not an error —
// clients can always ask).
func (s *Server) statsSnapshot() *obs.Snapshot {
	if s.metrics == nil {
		return &obs.Snapshot{}
	}
	return s.metrics.reg.Snapshot()
}

// setMetrics wires the journal's WALs and replication gates into reg.
// The WALMetrics bundle is shared across shards — fsync latency and
// group-commit size are store-wide distributions — while positions
// (buffered bytes, checkpoint backlog, frontiers, lag) register per
// shard.
func (j *Journal) setMetrics(reg *obs.Registry) {
	wm := &pfs.WALMetrics{
		FsyncNs:        reg.Histogram("wal_fsync_ns"),
		Fsyncs:         reg.Counter("wal_fsyncs_total"),
		BatchRecords:   reg.Histogram("wal_commit_batch_records"),
		BatchBytes:     reg.Histogram("wal_commit_batch_bytes"),
		FlushedBytes:   reg.Counter("wal_flushed_bytes_total"),
		CheckpointNs:   reg.Histogram("wal_checkpoint_ns"),
		Checkpoints:    reg.Counter("wal_checkpoints_total"),
		CheckpointErrs: reg.Counter("wal_checkpoint_errors_total"),
		PipelineDepth:  reg.Histogram("wal_commit_pipeline_depth"),
		StallNs:        reg.Histogram("wal_backpressure_stall_ns"),
		Stalls:         reg.Counter("wal_backpressure_stalls_total"),
	}
	j.ackWaitNs = reg.Histogram("repl_ack_wait_ns")
	j.ackTimeouts = reg.Counter("repl_ack_timeouts_total")
	for i := range j.wals {
		w := j.wals[i]
		g := &j.gates[i]
		w.SetMetrics(wm)
		shard := fmt.Sprintf(`{shard="%d"}`, i)
		reg.GaugeFunc("wal_buffered_bytes"+shard, w.BufferedBytes)
		reg.GaugeFunc("wal_sync_frontier_lag_bytes"+shard, w.SyncLag)
		reg.GaugeFunc("wal_checkpoint_peak_buffer_bytes"+shard, w.CheckpointPeakBuffer)
		reg.GaugeFunc("wal_since_checkpoint_bytes"+shard, w.SinceCheckpoint)
		reg.GaugeFunc("wal_last_lsn"+shard, func() int64 { return int64(w.LastLSN()) })
		reg.GaugeFunc("repl_lag_records"+shard, func() int64 { return lagRecords(w, g, int(j.cluster.Load())) })
		reg.GaugeFunc("repl_lag_bytes"+shard, func() int64 { return lagBytes(w, g, int(j.cluster.Load())) })
	}
	reg.GaugeFunc("repl_quorum_size", func() int64 {
		size, _, _ := j.QuorumInfo()
		return int64(size)
	})
	reg.GaugeFunc("repl_followers", func() int64 {
		_, _, followers := j.QuorumInfo()
		return int64(followers)
	})
	reg.GaugeFunc("repl_epoch", func() int64 { return int64(j.Epoch()) })
}

// lagRecords is the leader's view of one shard's replication debt in
// LSN units: shard frontier minus the quorum-acked frontier while the
// gate is armed (a follower registered or a cluster size configured),
// 0 otherwise. An upper bound except at 0 — see the package comment.
func lagRecords(w *pfs.WAL, g *replGate, cluster int) int64 {
	g.mu.Lock()
	acked := g.quorumAcked(cluster)
	g.mu.Unlock()
	if acked == ^uint64(0) {
		return 0 // unarmed
	}
	last := w.LastLSN()
	if last <= acked {
		return 0
	}
	return int64(last - acked)
}

// lagBytes is the byte-unit companion: log bytes appended past the
// point where the quorum last fully caught up.
func lagBytes(w *pfs.WAL, g *replGate, cluster int) int64 {
	g.mu.Lock()
	armed := g.need(cluster) > 0
	ackedEnd := g.ackedEnd
	g.mu.Unlock()
	if !armed {
		return 0
	}
	if end := w.AppendEnd(); end > ackedEnd {
		return end - ackedEnd
	}
	return 0
}

// setMetrics wires the follower-side counters (published atomically —
// the pull loops are already live when the server wires them).
func (r *Replica) setMetrics(reg *obs.Registry) {
	r.obsp.Store(&replicaObs{
		reconnects:   reg.Counter("repl_reconnects_total"),
		bootstraps:   reg.Counter("repl_snapshot_bootstraps_total"),
		applied:      reg.Counter("repl_applied_records_total"),
		appliedBytes: reg.Counter("repl_applied_bytes_total"),
	})
}
