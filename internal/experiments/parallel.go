package experiments

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Experiment tables are assembled from independent data points — one world,
// one simulation each. Virtual-time results depend only on the point's own
// inputs, so points can run on OS threads concurrently while rows are always
// assembled in the original order: the rendered bytes are identical for any
// worker count.

// workerOverride holds an explicit SetWorkers value (0 = unset).
var workerOverride atomic.Int64

// Workers reports the sweep worker-pool size: an explicit SetWorkers value if
// set, else GOMAXPROCS capped by available memory. An explicit setting is
// taken at face value; only the default is memory-aware.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	n := runtime.GOMAXPROCS(0)
	if cap := memWorkerCap(); cap > 0 && cap < n {
		n = cap
	}
	return n
}

// sweepWorkerBytes is a conservative per-worker memory budget: one in-flight
// sweep point holds a full simulated world (rank goroutines, rings, windows,
// fabric state) plus the allocator pools it warms up. The largest sweeps in
// the suite (512-rank NPB-class worlds) stay well under this.
const sweepWorkerBytes = 128 << 20

// memWorkerCap derives a worker ceiling from the kernel's MemAvailable
// estimate so that a default-width sweep on a small machine degrades to
// fewer concurrent worlds instead of swapping. Returns 0 (no cap) when
// /proc/meminfo is unreadable (non-Linux hosts).
func memWorkerCap() int {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	avail := parseMemAvailable(data)
	if avail <= 0 {
		return 0
	}
	limit := int(avail / sweepWorkerBytes)
	if limit < 1 {
		limit = 1
	}
	return limit
}

// parseMemAvailable extracts the MemAvailable value (bytes) from meminfo
// content; 0 (no cap) when absent, malformed or too large to count in bytes.
func parseMemAvailable(data []byte) int64 {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		const key = "MemAvailable:"
		if len(line) < len(key) || string(line[:len(key)]) != key {
			continue
		}
		fields := strings.Fields(string(line[len(key):]))
		// meminfo values carry an explicit "kB" unit; anything else means the
		// format is not what this parser understands, so don't guess a scale.
		if len(fields) < 2 || fields[1] != "kB" {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || kb < 0 || kb > math.MaxInt64>>10 {
			return 0
		}
		return kb << 10
	}
	return 0
}

// SetWorkers pins the sweep worker-pool size; n <= 0 restores the default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// mapPoints evaluates fn(0..n-1) on a bounded worker pool and returns the
// results in index order. Every point runs regardless of other points'
// failures; the reported error is the lowest-index one, so error returns are
// as deterministic as the results themselves, and fn sees the same set of
// invocations at every worker count.
func mapPoints[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(Workers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
