package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostContext describes the machine the metrics were taken on. It is
// printed beside the result, not as metrics, and measured after the run
// so it costs neither set-up nor the measured window.
func hostContext() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	var sleeps hist
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		time.Sleep(100 * time.Microsecond)
		sleeps.record(int64(time.Since(t0)))
	}
	h["sleep_100us_p50_us"] = sleeps.quantile(0.5) / 1e3
	if us, err := fsyncP50(); err == nil {
		h["fsync_4k_p50_us"] = us
	} else {
		h["fsync_4k_error"] = err.Error()
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsyncP50 times 4 KiB write+fsync on a real file under .bench_build.
func fsyncP50() (float64, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(".bench_build", "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "probe"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var h hist
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := f.Write(zeroBlock); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		h.record(int64(time.Since(t0)))
	}
	return h.quantile(0.5) / 1e3, nil
}
