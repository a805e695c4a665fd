// Command perfbench is the repository's benchmark. One run boots one
// workload in this process, drives it closed loop with two clients for
// --seconds, checks the outputs, and prints one JSON result line: the
// end-to-end metrics, or with --trace 1 the per-layer metrics of the
// traced layer ladder (see LAYERS.md).
//
//	go run . --workload served-scan --seed 1 --seconds 10 --trace 0
//
// The workloads, metrics and the layer -> metric -> workload map are
// described in LAYERS.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one booted system under test.
type workload interface {
	// slice drives the workload for d; ts, when set, records spans.
	slice(ts *traceSet, d time.Duration) (*sliceStats, error)
	// verify checks the state the run left behind.
	verify() error
	close() error
	// diskBytes is heap that stands in for a disk (MemDir contents) and
	// is left out of live_heap_mib.
	diskBytes() int64
}

// sliceStats is what one measured slice produced.
type sliceStats struct {
	ops, failed int64
	elapsed     time.Duration
	read, write *hist
	all         *hist // every class (served-scan)
	layer       map[string]float64
}

func (s *sliceStats) opsPerSec() float64 { return float64(s.ops) / s.elapsed.Seconds() }

type setupFunc func(seed int64, traced bool) (workload, error)

var workloads = map[string]setupFunc{
	"lock-array":   setupLockArray,
	"served-scan":  setupServedScan,
	"quorum-write": setupQuorumWrite,
}

// setups is how many times a run boots its workload; setup_s is the
// median, and the last one is measured.
const setups = 3

// windows is how many equal parts the measured time is cut into.
const windows = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errGate marks a failed correctness check, which still prints a result
// (with correct=false) before the run fails.
var errGate = errors.New("correctness check failed")

func main() {
	var (
		name    = flag.String("workload", "", "workload: lock-array, served-scan, quorum-write")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1: run the traced layer ladder and print per-layer metrics")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload lock-array|served-scan|quorum-write, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second

	var res *result
	var err error
	if *trace == 1 {
		res, err = runLadder(*name, *seed, d)
	} else {
		res, err = runEndToEnd(setup, *seed, d)
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	host, _ := json.Marshal(map[string]any{"host": hostContext()})
	fmt.Println(string(host))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// runEndToEnd boots the workload setups times, measures the last boot
// untraced for d in windows equal parts, verifies it and reports the
// median of each end-to-end metric over the windows, so one disturbed
// window cannot move a result.
func runEndToEnd(setup setupFunc, seed int64, d time.Duration) (*result, error) {
	var w workload
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if w, err = setup(seed, false); err != nil {
			return gateResult(err)
		}
		runtime.GC() // settle the heap before timing
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
	}
	res := &result{Correct: true, Metrics: map[string]metric{"setup_s": {median(setupS), "s"}}}
	vals := map[string][]float64{}
	var reads, writes uint64
	for i := 0; i < windows; i++ {
		st, err := w.slice(nil, d/windows)
		if err != nil {
			w.close()
			return gateResult(err)
		}
		res.Attempted += st.ops
		res.Failed += st.failed
		reads += st.read.n
		writes += st.write.n
		for k, v := range map[string]float64{
			"ops_per_s":    st.opsPerSec(),
			"read_p50_us":  st.read.quantile(0.50) / 1e3,
			"read_p99_us":  st.read.quantile(0.99) / 1e3,
			"write_p50_us": st.write.quantile(0.50) / 1e3,
			"write_p99_us": st.write.quantile(0.99) / 1e3,
		} {
			vals[k] = append(vals[k], v)
		}
	}
	if err := w.verify(); err != nil {
		w.close()
		return gateResult(err)
	}
	for _, em := range endToEnd {
		if v, ok := vals[em.name]; ok {
			res.Metrics[em.name] = metric{median(v), em.unit}
		}
	}
	fmt.Printf("samples: read=%d write=%d ops=%d windows=%d\n", reads, writes, res.Attempted, windows)
	return res, w.close()
}

// gateResult turns a failed check into a correct=false result; any
// other error stays an error without a result.
func gateResult(err error) (*result, error) {
	if !errors.Is(err, errGate) {
		return nil, err
	}
	return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, err
}
