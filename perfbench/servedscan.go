package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pfs"
	"repro/internal/rangestore"
)

// served-scan: a RAM-only server with 2 hash-placed shards of list-rw
// locks on loopback TCP, driven by 2 connections that each keep 8
// requests in flight.
const (
	scanShards   = 2
	scanClients  = 2
	scanDepth    = 8
	scanWarmOps  = 20_000 // per client
	dialDeadline = 5 * time.Second
)

type servedScan struct {
	store  *pfs.Sharded
	srv    *rangestore.Server
	addr   string
	served chan error

	counting atomic.Bool // wrap connections the server accepts
	counts   connCounts

	gens []*gen
	seqs []uint64 // per-client payload sequence, continued across slices
}

func setupServedScan(seed int64, traced bool) (workload, error) {
	store := pfs.NewShardedPlacement(scanShards, pfs.DefaultDomainLockFactory, pfs.HashPlacement{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &servedScan{
		store:  store,
		srv:    rangestore.NewServerSharded(store),
		addr:   l.Addr().String(),
		served: make(chan error, 1),
		seqs:   make([]uint64, scanClients),
	}
	var ln net.Listener = l
	if traced {
		ln = &countingListener{Listener: l, on: &w.counting, c: &w.counts}
	}
	go func() { w.served <- w.srv.Serve(ln) }()
	for c := 0; c < scanClients; c++ {
		w.gens = append(w.gens, newGen(&scanMix, seed*7919+int64(c)))
	}
	if err := w.populate(); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.run(nil, tcpDial(w.addr), 0, scanWarmOps); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// populate creates the files at full size; never-written bytes read as
// zeros.
func (w *servedScan) populate() error {
	cl, err := rangestore.DialTimeout(w.addr, dialDeadline)
	if err != nil {
		return err
	}
	defer cl.Close()
	for i := 0; i < scanMix.files; i++ {
		h, err := cl.Open(fileName(i), true)
		if err != nil {
			return fmt.Errorf("populate %s: %w", fileName(i), err)
		}
		if err := cl.Truncate(h, scanMix.fileSize); err != nil {
			return fmt.Errorf("populate %s: %w", fileName(i), err)
		}
	}
	return nil
}

// dialer opens one client connection; tr, when set, spans its I/O.
type dialer func(tr *track) (*rangestore.Client, error)

func tcpDial(addr string) dialer {
	return func(tr *track) (*rangestore.Client, error) {
		nc, err := net.DialTimeout("tcp", addr, dialDeadline)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			nc = &tracedConn{Conn: nc, t: tr}
		}
		return rangestore.NewClient(nc), nil
	}
}

// pipeDial serves each connection over rangestore.Pipe: the same server
// code without the kernel's loopback.
func pipeDial(srv *rangestore.Server) dialer {
	return func(tr *track) (*rangestore.Client, error) {
		c1, c2 := rangestore.Pipe()
		go srv.ServeConn(c2)
		var nc net.Conn = c1
		if tr != nil {
			nc = &tracedConn{Conn: c1, t: tr}
		}
		return rangestore.NewClient(nc), nil
	}
}

func (w *servedScan) slice(ts *traceSet, d time.Duration) (*sliceStats, error) {
	if ts == nil {
		return w.run(nil, tcpDial(w.addr), d, 0)
	}
	w.counting.Store(true)
	defer w.counting.Store(false)
	return w.run(ts, tcpDial(w.addr), d, 0)
}

// scanClient is one connection's tallies.
type scanClient struct {
	ops, failed int64
	lat         [numClasses]hist
	all         hist
	err         error
}

// run drives every client for d, or for maxOps each when maxOps > 0.
func (w *servedScan) run(ts *traceSet, dial dialer, d time.Duration, maxOps int64) (*sliceStats, error) {
	var (
		clients = make([]*rangestore.Client, scanClients)
		handles = make([][]uint32, scanClients)
		tracks  = make([]*track, scanClients)
	)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	for c := range clients {
		if ts != nil {
			tracks[c] = ts.track()
		}
		cl, err := dial(tracks[c])
		if err != nil {
			return nil, err
		}
		clients[c] = cl
		for i := 0; i < scanMix.files; i++ {
			h, err := cl.Open(fileName(i), false)
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", fileName(i), err)
			}
			handles[c] = append(handles[c], h)
		}
	}
	srvWrites0 := w.counts.writes.Load()
	srvBytes0 := w.counts.readBytes.Load() + w.counts.writtenBytes.Load()

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		res  = make([]*scanClient, scanClients)
	)
	start := time.Now()
	for c := range clients {
		res[c] = new(scanClient)
		if tracks[c] != nil {
			tracks[c].begun = start
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res[c].err = w.drive(clients[c], handles[c], c, tracks[c], res[c], &stop, maxOps)
			if tracks[c] != nil {
				tracks[c].finish()
			}
		}(c)
	}
	if maxOps == 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := &sliceStats{elapsed: elapsed, layer: map[string]float64{}, read: new(hist), write: new(hist)}
	var all hist
	for _, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		st.ops += r.ops
		st.failed += r.failed
		st.read.merge(&r.lat[opRead])
		st.write.merge(&r.lat[opWrite])
		all.merge(&r.all)
	}
	st.all = &all
	if ts != nil && st.ops > 0 {
		if fl := w.counts.writes.Load() - srvWrites0; fl > 0 {
			st.layer["rangestore.server.responses_per_flush"] = float64(st.ops) / float64(fl)
		}
		st.layer["rangestore.net.bytes_per_op"] = float64(w.counts.readBytes.Load()+w.counts.writtenBytes.Load()-srvBytes0) / float64(st.ops)
	}
	return st, nil
}

type inflight struct {
	op fileOp
	t0 time.Time
}

// drive is one closed-loop pipelined client: it keeps scanDepth requests
// in flight, sending the next only when the oldest has answered, and
// checks every response.
func (w *servedScan) drive(cl *rangestore.Client, handles []uint32, c int, tr *track, r *scanClient, stop *atomic.Bool, maxOps int64) error {
	g := w.gens[c]
	payload := make([]byte, blockSize)
	queue := make([]inflight, 0, scanDepth)
	var resp rangestore.Response
	span := func(l layer) {
		if tr != nil {
			tr.begin(l)
		}
	}
	endSpan := func() {
		if tr != nil {
			tr.end()
		}
	}

	recv := func() error {
		span(layerClient)
		err := cl.Recv(&resp)
		endSpan()
		if err != nil {
			return err
		}
		in := queue[0]
		queue = queue[1:]
		d := int64(time.Since(in.t0))
		r.lat[in.op.class].record(d)
		r.all.record(d)
		r.ops++
		if resp.Err() != nil {
			r.failed++
			return nil
		}
		span(layerVerify)
		err = checkResponse(in.op, &resp)
		endSpan()
		return err
	}
	send := func() error {
		op := g.next()
		req := rangestore.Request{Handle: handles[op.file]}
		switch op.class {
		case opRead:
			req.Op, req.Off, req.Length = rangestore.OpRead, op.off, uint32(op.length)
		case opWrite, opAppend:
			w.seqs[c]++
			fillPayload(payload, makeTag(c, w.seqs[c]))
			req.Op, req.Off, req.Data = rangestore.OpWrite, op.off, payload
			if op.class == opAppend {
				req.Op = rangestore.OpAppend
			}
		case opTruncate:
			req.Op, req.Size = rangestore.OpTruncate, op.size
		case opStat:
			req.Op = rangestore.OpStat
		}
		if tr != nil {
			tr.nextOp()
		}
		span(layerClient)
		_, err := cl.Send(&req)
		endSpan()
		queue = append(queue, inflight{op: op, t0: time.Now()})
		return err
	}
	flush := func() error {
		span(layerClient)
		err := cl.Flush()
		endSpan()
		return err
	}

	var sent int64
	for !stop.Load() && (maxOps == 0 || sent < maxOps) {
		if err := send(); err != nil {
			return err
		}
		sent++
		if len(queue) < scanDepth {
			continue
		}
		if err := flush(); err != nil {
			return err
		}
		if err := recv(); err != nil {
			return err
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for len(queue) > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// checkResponse is served-scan's correctness gate for one answer: reads
// must hold whole blocks, each zeros or one intact payload (the range
// lock's atomicity seen end to end); sizes and offsets stay aligned.
func checkResponse(op fileOp, resp *rangestore.Response) error {
	switch op.class {
	case opRead:
		if err := checkBlocks(resp.Data); err != nil {
			return fmt.Errorf("served-scan read of %s at %d: %w", fileName(op.file), op.off, err)
		}
	case opWrite:
		if resp.N != blockSize {
			return fmt.Errorf("%w: served-scan write of %s at %d: wrote %d bytes", errGate, fileName(op.file), op.off, resp.N)
		}
	case opAppend:
		if resp.Off%blockSize != 0 {
			return fmt.Errorf("%w: served-scan append to %s landed at unaligned offset %d", errGate, fileName(op.file), resp.Off)
		}
	case opStat:
		if resp.Size%blockSize != 0 {
			return fmt.Errorf("%w: served-scan stat of %s: unaligned size %d", errGate, fileName(op.file), resp.Size)
		}
	}
	return nil
}

// verify reads every file back whole and checks every block.
func (w *servedScan) verify() error {
	cl, err := rangestore.DialTimeout(w.addr, dialDeadline)
	if err != nil {
		return err
	}
	defer cl.Close()
	buf := make([]byte, rangestore.MaxData)
	for i := 0; i < scanMix.files; i++ {
		h, err := cl.Open(fileName(i), false)
		if err != nil {
			return err
		}
		size, _, err := cl.Stat(h)
		if err != nil {
			return err
		}
		for off := uint64(0); off < size; off += uint64(len(buf)) {
			n, err := cl.ReadAt(h, buf, off)
			if err != nil && !errors.Is(err, io.EOF) {
				return err
			}
			if err := checkBlocks(buf[:n]); err != nil {
				return fmt.Errorf("served-scan final read of %s at %d: %w", fileName(i), off, err)
			}
		}
	}
	return nil
}

func (w *servedScan) close() error {
	err := w.srv.Close()
	if serr := <-w.served; err == nil {
		err = serr
	}
	w.store.Close()
	return err
}

func (w *servedScan) diskBytes() int64 { return 0 }
