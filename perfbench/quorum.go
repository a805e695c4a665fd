package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pfs"
	"repro/internal/rangestore"
	"repro/internal/rangestore/ccache"
)

// quorum-write: a 3-node cluster booted as `rangestored -peers` boots it
// (the leader declares cluster size 3; followers run a replica and an
// elector), each node with 2 map-placed shards and fsync=batch on a
// pfs.MemDir, driven by 2 synchronous CachingClients over their own
// FailoverClients sharing one cache.
const (
	quorumShards     = 2
	quorumClients    = 2
	quorumCacheBytes = 64 << 20
	// quorumCkptBytes bounds each leader shard's log: MemDir keeps the
	// log on the heap, and at the default 64 MiB the log's sawtooth
	// would dwarf everything live_heap_mib is meant to show.
	quorumCkptBytes = 4 << 20
	quorumWarmOps   = 3_000 // per client
	replHeartbeat   = 500 * time.Millisecond
	electionTimeout = 2 * time.Second
	drainTimeout    = 10 * time.Second
)

type node struct {
	addr   string
	dir    *pfs.MemDir  // the leader's WAL device; followers use a sinkDir
	wal    *countingDir // the leader's, traced runs only
	store  *pfs.Sharded
	j      *rangestore.Journal
	srv    *rangestore.Server
	rep    *rangestore.Replica
	el     *rangestore.Elector
	served chan error
}

// cluster is n in-process nodes on loopback TCP; nodes[0] leads.
type cluster struct {
	nodes []*node
	repl  connCounts // followers' replication streams (traced runs)
}

func bootCluster(n int, traced bool) (*cluster, error) {
	cl := &cluster{}
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, err
		}
		listeners[i], peers[i] = l, l.Addr().String()
	}
	for i := 0; i < n; i++ {
		nd := &node{addr: peers[i], served: make(chan error, 1)}
		var dir pfs.Dir = newSinkDir()
		if i == 0 {
			nd.dir = pfs.NewMemDir()
			dir = nd.dir
			if traced {
				nd.wal = &countingDir{Dir: nd.dir}
				dir = nd.wal
			}
		}
		store, j, stats, err := rangestore.Recover(dir, rangestore.RecoverConfig{
			Shards:          quorumShards,
			Placement:       pfs.NewMapPlacement(nil),
			Sync:            pfs.SyncBatch,
			CheckpointBytes: quorumCkptBytes,
		})
		if err != nil {
			cl.close()
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		nd.store, nd.j = store, j
		opts := []rangestore.ServerOption{
			rangestore.WithJournal(j),
			rangestore.WithRecovered(stats),
			rangestore.WithReplHeartbeat(replHeartbeat),
		}
		var leader *rangestore.LeaderRef
		if i == 0 && n >= 2 {
			j.SetClusterSize(n)
		} else if i > 0 {
			leader = rangestore.NewLeaderRef(peers[0])
			rep, err := rangestore.StartReplica(store, j, stats, func() (net.Conn, error) {
				c, err := net.DialTimeout("tcp", leader.Load(), dialDeadline)
				if err != nil || !traced {
					return c, err
				}
				return &countingConn{Conn: c, c: &cl.repl}, nil
			}, rangestore.WithReplicaID(peers[i]))
			if err != nil {
				j.Close()
				cl.close()
				for _, l := range listeners[i:] {
					l.Close()
				}
				return nil, err
			}
			nd.rep = rep
			opts = append(opts, rangestore.WithFollower(rep, peers[0]))
		}
		nd.srv = rangestore.NewServerSharded(store, opts...)
		cl.nodes = append(cl.nodes, nd)
		if nd.rep != nil {
			el, err := rangestore.StartElector(nd.srv, rangestore.ElectorConfig{
				Self:  peers[i],
				Peers: peers,
				Dial: func(addr string) (net.Conn, error) {
					return net.DialTimeout("tcp", addr, dialDeadline)
				},
				Timeout: electionTimeout,
				Leader:  leader,
			})
			if err != nil {
				cl.close()
				for _, l := range listeners[i:] {
					l.Close()
				}
				return nil, err
			}
			nd.el = el
		}
		l := listeners[i]
		go func() { nd.served <- nd.srv.Serve(l) }()
	}
	return cl, nil
}

func (cl *cluster) close() error {
	var first error
	for _, nd := range cl.nodes {
		if nd.el != nil {
			nd.el.Stop()
		}
	}
	for _, nd := range cl.nodes {
		if nd.rep != nil {
			nd.rep.Stop()
		}
	}
	for _, nd := range cl.nodes {
		if nd.srv == nil {
			continue
		}
		nd.srv.Close()
		if err := <-nd.served; err != nil && first == nil {
			first = err
		}
	}
	for _, nd := range cl.nodes {
		if err := nd.j.Close(); err != nil && first == nil {
			first = err
		}
		nd.store.Close()
	}
	return first
}

// diskBytes is what the leader's MemDir holds: the simulated disk, which
// lives on the Go heap here but would not in a deployment.
func (cl *cluster) diskBytes() int64 {
	var n int64
	for _, nd := range cl.nodes {
		if nd.dir == nil {
			continue
		}
		names, err := nd.dir.List()
		if err != nil {
			continue
		}
		for _, name := range names {
			if b, err := nd.dir.ReadFile(name); err == nil {
				n += int64(len(b))
			}
		}
	}
	return n
}

// tracedBase sits between a CachingClient and its FailoverClient. With a
// track installed it spans every call into the failover layer and counts
// reads that reached it, so a ReadAt that did not is a cache hit.
type tracedBase struct {
	rangestore.BaseClient
	slot  *traceSlot
	reads int
}

// traceSlot is the track of the slice currently driving one client; nil
// between traced slices. Set only while the client's goroutine is not
// running.
type traceSlot struct {
	t *track
}

func (b *tracedBase) ReadAt(h uint32, p []byte, off uint64) (int, error) {
	b.reads++
	if t := b.slot.t; t != nil {
		t.begin(layerFailover)
		defer t.end()
	}
	return b.BaseClient.ReadAt(h, p, off)
}

func (b *tracedBase) WriteAt(h uint32, p []byte, off uint64) (int, error) {
	if t := b.slot.t; t != nil {
		t.begin(layerFailover)
		defer t.end()
	}
	return b.BaseClient.WriteAt(h, p, off)
}

// slotConn spans a client connection's I/O while its slot holds a track.
type slotConn struct {
	net.Conn
	slot *traceSlot
}

func (c *slotConn) Read(p []byte) (int, error) {
	t := c.slot.t
	if t == nil {
		return c.Conn.Read(p)
	}
	t.begin(layerNet)
	defer t.end()
	return c.Conn.Read(p)
}

func (c *slotConn) Write(p []byte) (int, error) {
	t := c.slot.t
	if t == nil {
		return c.Conn.Write(p)
	}
	t.begin(layerNet)
	defer t.end()
	return c.Conn.Write(p)
}

// quorumClient is one closed-loop client and its write history.
type quorumClient struct {
	cc      *rangestore.CachingClient
	base    *tracedBase // traced runs only
	slot    *traceSlot
	handles []uint32
	gen     *gen
	seq     uint64
	last    map[int]uint64 // owned block (file*blocksPerFile+block) -> last acked seq
}

type quorumWrite struct {
	cl      *cluster
	cache   *ccache.Cache
	clients []*quorumClient
	dials   atomic.Int64
}

// quorumBlocks is the number of blocks per quorum-write file.
var quorumBlocks = int(quorumMix.fileSize / blockSize)

func setupQuorumWrite(seed int64, traced bool) (workload, error) {
	return setupQuorumNodes(seed, traced, 3)
}

// setupQuorumNodes boots an n-node cluster and its clients, populates the
// files and warms the cache.
func setupQuorumNodes(seed int64, traced bool, n int) (*quorumWrite, error) {
	cl, err := bootCluster(n, traced)
	if err != nil {
		return nil, err
	}
	w := &quorumWrite{cl: cl, cache: ccache.New(ccache.Config{MaxBytes: quorumCacheBytes})}
	if err := w.populate(); err != nil {
		w.close()
		return nil, err
	}
	addrs := make([]string, n)
	for i, nd := range cl.nodes {
		addrs[i] = nd.addr
	}
	for c := 0; c < quorumClients; c++ {
		qc := &quorumClient{gen: newGen(&quorumMix, seed*104729+int64(c)), slot: new(traceSlot), last: map[int]uint64{}}
		slot := qc.slot
		fc, err := rangestore.NewFailoverClient(rangestore.FailoverConfig{
			Addrs: addrs,
			Dial: func(addr string) (*rangestore.Client, error) {
				w.dials.Add(1)
				nc, err := net.DialTimeout("tcp", addr, dialDeadline)
				if err != nil {
					return nil, err
				}
				if traced {
					nc = &slotConn{Conn: nc, slot: slot}
				}
				return rangestore.NewClient(nc), nil
			},
		})
		if err != nil {
			w.close()
			return nil, err
		}
		var base rangestore.BaseClient = fc
		if traced {
			qc.base = &tracedBase{BaseClient: fc, slot: slot}
			base = qc.base
		}
		qc.cc = rangestore.NewCachingClient(base, w.cache)
		w.clients = append(w.clients, qc)
		for i := 0; i < quorumMix.files; i++ {
			h, err := qc.cc.Open(fileName(i), false)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("open %s: %w", fileName(i), err)
			}
			qc.handles = append(qc.handles, h)
		}
	}
	if _, err := w.run(nil, 0, quorumWarmOps); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *quorumWrite) populate() error {
	c, err := rangestore.DialTimeout(w.cl.nodes[0].addr, dialDeadline)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < quorumMix.files; i++ {
		h, err := c.Open(fileName(i), true)
		if err != nil {
			return fmt.Errorf("populate %s: %w", fileName(i), err)
		}
		if err := c.Truncate(h, quorumMix.fileSize); err != nil {
			return fmt.Errorf("populate %s: %w", fileName(i), err)
		}
	}
	return nil
}

func (w *quorumWrite) slice(ts *traceSet, d time.Duration) (*sliceStats, error) {
	return w.run(ts, d, 0)
}

type quorumTally struct {
	ops, failed, writes int64
	read, write, hit    hist
	err                 error
}

func (w *quorumWrite) run(ts *traceSet, d time.Duration, maxOps int64) (*sliceStats, error) {
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		res  = make([]*quorumTally, len(w.clients))
	)
	dials0 := w.dials.Load()
	h0, m0, inv0, ev0, _ := w.cache.Stats()
	var wal0 [3]int64
	if lw := w.cl.nodes[0].wal; lw != nil {
		wal0 = [3]int64{lw.syncs.Load(), lw.writes.Load(), lw.bytes.Load()}
	}
	repl0 := w.cl.repl.readBytes.Load()

	start := time.Now()
	for c, qc := range w.clients {
		res[c] = new(quorumTally)
		if ts != nil {
			qc.slot.t = ts.track()
			qc.slot.t.begun = start
		}
		wg.Add(1)
		go func(c int, qc *quorumClient) {
			defer wg.Done()
			res[c].err = w.drive(c, qc, res[c], &stop, maxOps)
			if qc.slot.t != nil {
				qc.slot.t.finish()
			}
		}(c, qc)
	}
	if maxOps == 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, qc := range w.clients {
		qc.slot.t = nil
	}

	st := &sliceStats{elapsed: elapsed, layer: map[string]float64{}, read: new(hist), write: new(hist)}
	var hits hist
	var writes int64
	for _, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		st.ops += r.ops
		st.failed += r.failed
		st.read.merge(&r.read)
		st.write.merge(&r.write)
		hits.merge(&r.hit)
		writes += r.writes
	}
	if ts == nil || st.ops == 0 {
		return st, nil
	}
	h1, m1, inv1, ev1, _ := w.cache.Stats()
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		st.layer["ccache.hit_ratio"] = float64(h1-h0) / float64(lookups)
	}
	st.layer["ccache.evictions"] = float64(ev1 - ev0)
	st.layer["ccache.hit_ns"] = hits.quantile(0.5)
	st.layer["rangestore.failover.reconnects"] = float64(w.dials.Load() - dials0)
	if writes > 0 {
		userBytes := float64(writes * blockSize)
		st.layer["ccache.invalidations_per_write"] = float64(inv1-inv0) / float64(writes)
		if lw := w.cl.nodes[0].wal; lw != nil {
			st.layer["pfs.wal.syncs_per_write"] = float64(lw.syncs.Load()-wal0[0]) / float64(writes)
			st.layer["pfs.wal.writes_per_write"] = float64(lw.writes.Load()-wal0[1]) / float64(writes)
			st.layer["pfs.wal.log_bytes_per_user_byte"] = float64(lw.bytes.Load()-wal0[2]) / userBytes
		}
		st.layer["rangestore.repl.bytes_per_user_byte"] = float64(w.cl.repl.readBytes.Load()-repl0) / userBytes
	}
	return st, nil
}

// owned maps client c's choice of block to the block it owns: clients
// split each file's blocks by parity, so every block has one writer and
// its last acked payload is known exactly.
func owned(c int, off uint64) (uint64, int) {
	blk := (off/blockSize)&^1 | uint64(c)
	return blk * blockSize, int(blk)
}

// drive is one synchronous closed-loop client. Each read is checked:
// every block is zeros or one intact payload, and a block this client
// owns holds exactly its last acked write (read-your-writes through the
// cache).
func (w *quorumWrite) drive(c int, qc *quorumClient, r *quorumTally, stop *atomic.Bool, maxOps int64) error {
	buf := make([]byte, blockSize)
	tr := qc.slot.t
	for n := int64(0); !stop.Load() && (maxOps == 0 || n < maxOps); n++ {
		op := qc.gen.next()
		h := qc.handles[op.file]
		if tr != nil {
			tr.nextOp()
		}
		switch op.class {
		case opRead:
			var reads0 int
			if qc.base != nil {
				reads0 = qc.base.reads
			}
			if tr != nil {
				tr.begin(layerCache)
			}
			t0 := time.Now()
			nr, err := qc.cc.ReadAt(h, buf, op.off)
			d := int64(time.Since(t0))
			if tr != nil {
				tr.end()
			}
			r.ops++
			r.read.record(d)
			if err != nil || nr != blockSize {
				r.failed++
				continue
			}
			if qc.base != nil && qc.base.reads == reads0 {
				r.hit.record(d)
			}
			if tr != nil {
				tr.begin(layerVerify)
			}
			err = w.checkRead(c, qc, op, buf)
			if tr != nil {
				tr.end()
			}
			if err != nil {
				return err
			}
		case opWrite:
			off, blk := owned(c, op.off)
			qc.seq++
			fillPayload(buf, makeTag(c, qc.seq))
			if tr != nil {
				tr.begin(layerCache)
			}
			t0 := time.Now()
			nw, err := qc.cc.WriteAt(h, buf, off)
			d := int64(time.Since(t0))
			if tr != nil {
				tr.end()
			}
			r.ops++
			r.writes++
			r.write.record(d)
			if err != nil || nw != blockSize {
				r.failed++
				continue
			}
			qc.last[op.file*quorumBlocks+blk] = qc.seq
		}
	}
	return nil
}

func (w *quorumWrite) checkRead(c int, qc *quorumClient, op fileOp, b []byte) error {
	tag, err := blockTag(b)
	if err != nil {
		return fmt.Errorf("quorum-write read of %s at %d: %w", fileName(op.file), op.off, err)
	}
	blk := int(op.off / blockSize)
	if blk%quorumClients != c {
		return nil
	}
	var want uint64
	if seq, ok := qc.last[op.file*quorumBlocks+blk]; ok {
		want = makeTag(c, seq)
	}
	if tag != want {
		return fmt.Errorf("%w: quorum-write read of own block %s at %d: got payload %#x, last acked %#x", errGate, fileName(op.file), op.off, tag, want)
	}
	return nil
}

// verify: every acked write reads back from the leader, and from every
// follower once replication has drained.
func (w *quorumWrite) verify() error {
	for i, nd := range w.cl.nodes {
		deadline := time.Now().Add(drainTimeout)
		for {
			err := w.verifyNode(nd.addr)
			if err == nil {
				break
			}
			if i == 0 || time.Now().After(deadline) {
				return fmt.Errorf("quorum-write: node %d (%s): %w", i, nd.addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

func (w *quorumWrite) verifyNode(addr string) error {
	c, err := rangestore.DialTimeout(addr, dialDeadline)
	if err != nil {
		return err
	}
	defer c.Close()
	handles := make([]uint32, quorumMix.files)
	for i := range handles {
		if handles[i], err = c.Open(fileName(i), false); err != nil {
			return err
		}
	}
	buf := make([]byte, blockSize)
	for ci, qc := range w.clients {
		for key, seq := range qc.last {
			file, blk := key/quorumBlocks, key%quorumBlocks
			if _, err := c.ReadAt(handles[file], buf, uint64(blk)*blockSize); err != nil {
				return err
			}
			tag, err := blockTag(buf)
			if err != nil {
				return err
			}
			if want := makeTag(ci, seq); tag != want {
				return fmt.Errorf("%w: %s block %d holds %#x, acked write was %#x", errGate, fileName(file), blk, tag, want)
			}
		}
	}
	return nil
}

func (w *quorumWrite) close() error {
	var err error
	for _, qc := range w.clients {
		qc.cc.Close()
	}
	if cerr := w.cl.close(); cerr != nil {
		err = cerr
	}
	return err
}

func (w *quorumWrite) diskBytes() int64 { return w.cl.diskBytes() }
