package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/pfs"
)

// Layer names a span's layer: the program boundary the benchmark crossed
// when it opened the span.
type layer uint8

const (
	layerCore     layer = iota // rangelock acquire and release
	layerArray                 // lock-array's slot reads/increments and non-critical work
	layerClient                // rangestore.Client Send/Flush/Recv: codec and buffering
	layerNet                   // net.Conn Read/Write on the client's connection
	layerCache                 // rangestore.CachingClient: cache lookup, fill, invalidate
	layerFailover              // rangestore.FailoverClient: leader routing, retries
	layerVerify                // the benchmark's own correctness checks
	numLayers
)

var layerNames = [numLayers]string{"core", "array", "client", "net", "cache", "failover", "verify"}

// span is one recorded interval, kept in memory and written at exit.
type span struct {
	layer  layer
	parent int32 // index of the enclosing span in the same track, -1 at top level
	op     uint32
	start  int64 // ns since the track's epoch
	end    int64
}

// maxSpans caps the spans one track keeps for the dump; self-times and
// coverage are accumulated for every span regardless.
const maxSpans = 1 << 13

type open struct {
	idx      int32
	layer    layer
	start    int64
	children int64
}

// track records the spans of one client goroutine. Spans nest strictly
// (a goroutine is inside at most one call per layer at a time), so a
// span's self time is its duration minus its direct children's.
type track struct {
	epoch   time.Time
	spans   []span
	stack   []open
	op      uint32
	self    [numLayers]int64
	covered int64 // time inside top-level spans
	begun   time.Time
	window  int64 // time the goroutine spent in its measured loop
}

func newTrack(epoch time.Time) *track {
	return &track{epoch: epoch, spans: make([]span, 0, 1024), begun: time.Now()}
}

func (t *track) nextOp() { t.op++ }

func (t *track) begin(l layer) {
	now := int64(time.Since(t.epoch))
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{layer: l, parent: parent, op: t.op, start: now})
	}
	t.stack = append(t.stack, open{idx: idx, layer: l, start: now})
}

func (t *track) end() {
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	t.self[o.layer] += d - o.children
	if n > 0 {
		t.stack[n-1].children += d
	} else {
		t.covered += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// finish closes the goroutine's measured window.
func (t *track) finish() { t.window = int64(time.Since(t.begun)) }

// traceSet collects the tracks of one traced slice. Tracks are created
// by the goroutine that starts the slice, before the clients run.
type traceSet struct {
	epoch  time.Time
	tracks []*track
}

func newTraceSet() *traceSet { return &traceSet{epoch: time.Now()} }

func (s *traceSet) track() *track {
	t := newTrack(s.epoch)
	s.tracks = append(s.tracks, t)
	return t
}

// unattributed is the share of the client goroutines' measured time that
// no layer span covers: the benchmark's own loop, generator and
// bookkeeping, plus anything a layer does outside the calls it was
// traced at.
func (s *traceSet) unattributed() float64 {
	var window, covered int64
	for _, t := range s.tracks {
		window += t.window
		covered += t.covered
	}
	if window == 0 {
		return 0
	}
	return float64(window-covered) / float64(window)
}

// selfShare returns each layer's self time as a share of client time.
func (s *traceSet) selfShare() map[string]float64 {
	var window int64
	var self [numLayers]int64
	for _, t := range s.tracks {
		window += t.window
		for l := range self {
			self[l] += t.self[l]
		}
	}
	out := make(map[string]float64, numLayers)
	for l, ns := range self {
		if ns > 0 && window > 0 {
			out[layerNames[l]] = float64(ns) / float64(window)
		}
	}
	return out
}

// spanLog gathers every traced slice's spans for the dump at exit.
type spanLog struct {
	sets []namedSet
}

type namedSet struct {
	name string
	set  *traceSet
}

func (l *spanLog) add(name string, s *traceSet) {
	l.sets = append(l.sets, namedSet{name, s})
}

// write dumps the spans as tab-separated lines: slice, track, span index,
// parent, op, layer, start ns, end ns.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "slice\ttrack\tspan\tparent\top\tlayer\tstart_ns\tend_ns")
	for _, ns := range l.sets {
		for ti, t := range ns.set.tracks {
			for i, sp := range t.spans {
				fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n",
					ns.name, ti, i, sp.parent, sp.op, layerNames[sp.layer], sp.start, sp.end)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn spans a client goroutine's reads and writes on its
// connection (layerNet).
type tracedConn struct {
	net.Conn
	t *track
}

func (c *tracedConn) Read(p []byte) (int, error) {
	c.t.begin(layerNet)
	defer c.t.end()
	return c.Conn.Read(p)
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.t.begin(layerNet)
	defer c.t.end()
	return c.Conn.Write(p)
}

// countingConn counts calls and bytes on a connection another goroutine
// owns (the server's side, a follower's replication stream).
type countingConn struct {
	net.Conn
	c *connCounts
}

type connCounts struct {
	writes, readBytes, writtenBytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.readBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.writtenBytes.Add(int64(n))
	return n, err
}

// countingListener wraps the server's accepted connections while on is
// set, so untraced slices on the same server stay unwrapped.
type countingListener struct {
	net.Listener
	on *atomic.Bool
	c  *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil || !l.on.Load() {
		return nc, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

// countingDir counts what the WAL asks of its device: file writes, bytes
// and syncs. It is where pfs meets the disk, so it sees group commit's
// batching directly.
type countingDir struct {
	pfs.Dir
	writes, bytes, syncs atomic.Int64
}

func (d *countingDir) Create(name string) (pfs.LogFile, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{LogFile: f, d: d}, nil
}

type countingFile struct {
	pfs.LogFile
	d *countingDir
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.LogFile.Write(p)
	f.d.writes.Add(1)
	f.d.bytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.d.syncs.Add(1)
	return f.LogFile.Sync()
}
