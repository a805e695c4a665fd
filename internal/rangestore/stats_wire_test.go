package rangestore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pfs"
)

// statsTestSnapshot builds a registry with every metric kind populated
// and snapshots it.
func statsTestSnapshot() *obs.Snapshot {
	reg := obs.NewRegistry()
	reg.Counter(`rs_requests_total{op="read"}`).Add(123)
	reg.Counter(`rs_requests_total{op="write"}`).Add(7)
	reg.Gauge("rs_open_conns").Set(-2) // gauges may go negative on the wire
	h := reg.Histogram("wal_fsync_ns")
	h.Observe(1)
	h.Observe(900)
	h.Observe(1 << 40) // lands in the overflow bucket
	reg.GaugeFunc(`repl_lag_records{shard="0"}`, func() int64 { return 55 })
	return reg.Snapshot()
}

func TestStatsRoundTrip(t *testing.T) {
	want := statsTestSnapshot()
	resp := Response{Op: OpStats, Seq: 42, Stats: want}
	buf, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := ParseResponse(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != OpStats || got.Seq != 42 || got.Status != StatusOK {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Stats == nil {
		t.Fatal("decoded Stats is nil")
	}
	if !reflect.DeepEqual(got.Stats.Entries, want.Entries) {
		t.Fatalf("snapshot did not round-trip:\ngot  %+v\nwant %+v", got.Stats.Entries, want.Entries)
	}
	// Derived views must survive the trip too.
	if got.Stats.Value(`rs_requests_total{op="read"}`) != 123 {
		t.Error("counter value lost")
	}
	if hs := got.Stats.HistOf("wal_fsync_ns"); hs == nil || hs.Count() != 3 || hs.Sum != want.HistOf("wal_fsync_ns").Sum {
		t.Errorf("histogram lost state: %+v", hs)
	}
}

func TestStatsRoundTripEmpty(t *testing.T) {
	for _, snap := range []*obs.Snapshot{nil, {}} {
		resp := Response{Op: OpStats, Seq: 1, Stats: snap}
		buf, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		body, err := ReadFrame(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Response
		if err := ParseResponse(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Stats == nil || len(got.Stats.Entries) != 0 {
			t.Fatalf("empty snapshot decoded as %+v", got.Stats)
		}
	}
}

func TestStatsParseRejectsTruncation(t *testing.T) {
	resp := Response{Op: OpStats, Seq: 9, Stats: statsTestSnapshot()}
	full, err := AppendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	body := full[4:] // strip the length prefix
	// Cut inside the stats payload (the fixed response header is 8
	// bytes); every truncation must be rejected, never mis-decoded.
	for cut := 9; cut < len(body); cut++ {
		var r Response
		if err := ParseResponse(body[:cut], &r); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStatsOverServer(t *testing.T) {
	srv := NewServerSharded(pfs.NewSharded(2, nil))
	defer srv.Close()
	cl := pipeClient(t, srv)

	if _, err := cl.Open("stats-probe", true); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) == 0 {
		t.Fatal("server snapshot is empty — metrics should default on")
	}
	if got := snap.Value(`rs_requests_total{op="open"}`); got < 1 {
		t.Errorf(`rs_requests_total{op="open"} = %d, want >= 1`, got)
	}
	// The STATS request itself is counted by the next snapshot.
	snap2, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap2.Value(`rs_requests_total{op="stats"}`); got < 1 {
		t.Errorf(`rs_requests_total{op="stats"} = %d, want >= 1`, got)
	}
}

// TestLockDomainGauges checks the per-shard lock-domain series: every
// shard of a list-lock store reports its arena size and orphaned count,
// and a write makes the arena of the shard it touched non-empty.
func TestLockDomainGauges(t *testing.T) {
	store := pfs.NewSharded(2, nil)
	srv := NewServerSharded(store)
	defer srv.Close()
	cl := pipeClient(t, srv)

	const name = "gauge-probe"
	h, err := cl.Open(name, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WriteAt(h, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < store.NumShards(); i++ {
		for _, series := range []string{"rangelock_arena_nodes", "ebr_orphaned"} {
			full := fmt.Sprintf(`%s{shard="%d"}`, series, i)
			if _, ok := snap.Get(full); !ok {
				t.Errorf("%s missing from the snapshot", full)
			}
		}
	}
	full := fmt.Sprintf(`rangelock_arena_nodes{shard="%d"}`, store.ShardIndex(name))
	if got := snap.Value(full); got <= 0 {
		t.Errorf("%s = %d after a write to that shard, want > 0", full, got)
	}
}
