package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rangelock "repro"
	"repro/internal/pfs"
	"repro/internal/rangestore"
)

// The traced run is a fixed ladder of rungs, the same for every
// --workload: each workload's traced slices (spans and counters at its
// layer boundaries) and the isolated rungs that replay a workload's op
// stream through one layer alone. Only the reconciliation metrics —
// trace.unattributed_ratio and trace.overhead_ratio — belong to the
// named workload, which alone runs several untraced/traced slice pairs.

// pairsUnderTest is how many untraced/traced slice pairs the named
// workload runs; the others run one pair.
const pairsUnderTest = 3

// ladderUnits is how many equal slices --seconds is cut into: the named
// workload's pairs, one pair for each other workload, and five isolated
// rungs (ebr, pfs, codec, pipe, single-node).
const ladderUnits = 2*pairsUnderTest + 2*2 + 5

type ladder struct {
	name    string
	seed    int64
	unit    time.Duration
	layer   map[string][]float64 // every reading of each per-layer metric
	spans   spanLog
	ops     int64
	failed  int64
	quorumW float64 // untraced quorum-write write p50, ns
}

func (l *ladder) put(m map[string]float64) {
	for k, v := range m {
		l.layer[k] = append(l.layer[k], v)
	}
}

func runLadder(name string, seed int64, d time.Duration) (*result, error) {
	l := &ladder{name: name, seed: seed, unit: d / ladderUnits, layer: map[string][]float64{}}
	for _, wl := range []string{"lock-array", "served-scan", "quorum-write"} {
		if err := l.workload(wl); err != nil {
			return gateResult(err)
		}
	}
	rungs := []func() error{l.ebrLease, l.pfsReplay, l.codec, l.singleNode}
	for _, r := range rungs {
		if err := r(); err != nil {
			return gateResult(err)
		}
	}
	if err := l.spans.write(filepath.Join(".bench_build", "perfbench-spans-"+name+".tsv")); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, pm := range perLayer {
		vs, ok := l.layer[pm.name]
		if !ok {
			return nil, fmt.Errorf("ladder produced no %s", pm.name)
		}
		m[pm.name] = metric{median(vs), pm.unit}
	}
	return &result{Correct: true, Attempted: l.ops, Failed: l.failed, Metrics: m}, nil
}

// workload boots wl with its counting wrappers and runs its slice pairs.
func (l *ladder) workload(wl string) error {
	w, err := workloads[wl](l.seed, true)
	if err != nil {
		return err
	}
	defer w.close()
	pairs := 1
	if wl == l.name {
		pairs = pairsUnderTest
	}
	var plain, traced, unattributed []float64
	var writeP50 []float64
	for i := 0; i < pairs; i++ {
		u, err := w.slice(nil, l.unit)
		if err != nil {
			return err
		}
		ts := newTraceSet()
		t, err := w.slice(ts, l.unit)
		if err != nil {
			return err
		}
		l.spans.add(fmt.Sprintf("%s/%d", wl, i), ts)
		for _, s := range []*sliceStats{u, t} {
			l.ops += s.ops
			l.failed += s.failed
		}
		l.put(u.layer)
		l.put(t.layer)
		plain = append(plain, u.opsPerSec())
		traced = append(traced, t.opsPerSec())
		unattributed = append(unattributed, ts.unattributed())
		writeP50 = append(writeP50, u.write.quantile(0.5))
		if i == 0 {
			fmt.Printf("trace %s self-time shares: %v\n", wl, ts.selfShare())
		}
	}
	if wl == l.name {
		l.layer["trace.unattributed_ratio"] = unattributed
		l.layer["trace.overhead_ratio"] = []float64{1 - median(traced)/median(plain)}
		l.layer["live_heap_mib"] = []float64{liveHeapMiB(w)}
	}
	switch wl {
	case "served-scan":
		// The same stream over rangestore.Pipe: no kernel on the path.
		st, err := w.(*servedScan).run(nil, pipeDial(w.(*servedScan).srv), l.unit, 0)
		if err != nil {
			return err
		}
		l.ops += st.ops
		l.failed += st.failed
		l.layer["rangestore.server.pipe_rtt_ns"] = []float64{st.all.quantile(0.5)}
	case "quorum-write":
		l.quorumW = median(writeP50)
	}
	return w.verify()
}

// ebrLease times BeginOp+End on a fresh domain from two goroutines, in
// batches of 64 so the clock reads do not dominate a ~20 ns call pair.
func (l *ladder) ebrLease() error {
	dom := rangelock.NewDomain(arrayDomain)
	lk := rangelock.NewRW(dom)
	const batch = 64
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		hs   [arrayWorkers]hist
	)
	for g := range hs {
		wg.Add(1)
		go func(h *hist) {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				for i := 0; i < batch; i++ {
					lk.BeginOp().End()
				}
				h.record(int64(time.Since(t0)) / batch)
			}
		}(&hs[g])
	}
	time.Sleep(l.unit)
	stop.Store(true)
	wg.Wait()
	var all hist
	for i := range hs {
		all.merge(&hs[i])
	}
	l.layer["ebr.lease_ns"] = []float64{all.quantile(0.5)}
	return nil
}

// pfsReplay replays the served-scan op stream in-process against a
// pfs.Sharded of the served shape, timing each op.
func (l *ladder) pfsReplay() error {
	store := pfs.NewShardedPlacement(scanShards, pfs.DefaultDomainLockFactory, pfs.HashPlacement{})
	defer store.Close()
	files := make([]*pfs.File, scanMix.files)
	for i := range files {
		f, err := store.Create(fileName(i))
		if err != nil {
			return err
		}
		f.Truncate(scanMix.fileSize)
		files[i] = f
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		lat  [scanClients][numClasses]hist
		errs [scanClients]error
	)
	for c := 0; c < scanClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newGen(&scanMix, l.seed*7919+int64(c))
			payload := make([]byte, blockSize)
			buf := make([]byte, scanMix.maxBlocks*blockSize)
			var seq uint64
			for !stop.Load() {
				op := g.next()
				f := files[op.file]
				if op.class == opWrite || op.class == opAppend {
					seq++
					fillPayload(payload, makeTag(c, seq))
				}
				var n int
				var err error
				t0 := time.Now()
				switch op.class {
				case opRead:
					n, err = f.ReadAt(buf[:op.length], op.off)
				case opWrite:
					_, err = f.WriteAt(payload, op.off)
				case opAppend:
					_, err = f.Append(payload)
				case opTruncate:
					f.Truncate(op.size)
				case opStat:
					f.Stat()
				}
				lat[c][op.class].record(int64(time.Since(t0)))
				if op.class == opRead && (err == nil || errors.Is(err, io.EOF)) {
					err = checkBlocks(buf[:n])
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	time.Sleep(l.unit)
	stop.Store(true)
	wg.Wait()
	var all [numClasses]hist
	for c := range lat {
		if errs[c] != nil {
			return fmt.Errorf("pfs replay: %w", errs[c])
		}
		for k := range all {
			all[k].merge(&lat[c][k])
		}
	}
	l.layer["pfs.read_ns"] = []float64{all[opRead].quantile(0.5)}
	l.layer["pfs.write_ns"] = []float64{all[opWrite].quantile(0.5)}
	l.layer["pfs.append_ns"] = []float64{all[opAppend].quantile(0.5)}
	l.layer["pfs.truncate_ns"] = []float64{all[opTruncate].quantile(0.5)}
	return nil
}

// codec encodes and decodes the served-scan stream's request+response
// pairs through the exported wire codec.
func (l *ladder) codec() error {
	g := newGen(&scanMix, l.seed*7919)
	payload := make([]byte, blockSize)
	data := make([]byte, scanMix.maxBlocks*blockSize)
	var (
		enc, dec hist
		buf      []byte
		req      rangestore.Request
		resp     rangestore.Response
		seq      uint64
	)
	deadline := time.Now().Add(l.unit)
	for time.Now().Before(deadline) {
		op := g.next()
		in := rangestore.Request{Seq: uint32(seq), Handle: uint32(op.file)}
		out := rangestore.Response{Seq: uint32(seq), Status: rangestore.StatusOK}
		switch op.class {
		case opRead:
			in.Op, in.Off, in.Length = rangestore.OpRead, op.off, uint32(op.length)
			out.Data = data[:op.length]
		case opWrite:
			seq++
			fillPayload(payload, makeTag(0, seq))
			in.Op, in.Off, in.Data = rangestore.OpWrite, op.off, payload
			out.N = blockSize
		case opAppend:
			in.Op, in.Data = rangestore.OpAppend, payload
			out.Off = op.off
		case opTruncate:
			in.Op, in.Size = rangestore.OpTruncate, op.size
		case opStat:
			in.Op = rangestore.OpStat
			out.Size = scanMix.fileSize
		}
		out.Op = in.Op
		t0 := time.Now()
		var err error
		buf, err = rangestore.AppendRequest(buf[:0], &in)
		if err != nil {
			return err
		}
		split := len(buf)
		if buf, err = rangestore.AppendResponse(buf, &out); err != nil {
			return err
		}
		t1 := time.Now()
		if err := rangestore.ParseRequest(buf[4:split], &req); err != nil {
			return err
		}
		if err := rangestore.ParseResponse(buf[split+4:], &resp); err != nil {
			return err
		}
		t2 := time.Now()
		enc.record(int64(t1.Sub(t0)))
		dec.record(int64(t2.Sub(t1)))
		if req.Op != in.Op || resp.Op != out.Op || len(resp.Data) != len(out.Data) {
			return fmt.Errorf("%w: codec round trip changed op %v", errGate, in.Op)
		}
	}
	l.layer["rangestore.codec.encode_ns"] = []float64{enc.quantile(0.5)}
	l.layer["rangestore.codec.decode_ns"] = []float64{dec.quantile(0.5)}
	return nil
}

// singleNode measures the same client stack against one durable node;
// the quorum's cost is the 3-node write p50 above it.
func (l *ladder) singleNode() error {
	w, err := setupQuorumNodes(l.seed, false, 1)
	if err != nil {
		return err
	}
	defer w.close()
	st, err := w.slice(nil, l.unit)
	if err != nil {
		return err
	}
	l.ops += st.ops
	l.failed += st.failed
	l.layer["rangestore.quorum.ack_ns"] = []float64{l.quorumW - st.write.quantile(0.5)}
	return w.verify()
}

// liveHeapMiB is the Go heap in use after a full collection, less the
// bytes that stand in for a disk.
func liveHeapMiB(w workload) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-w.diskBytes()) / (1 << 20)
}
