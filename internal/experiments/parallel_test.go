package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestParseMemAvailable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want int64
	}{
		{"typical", "MemTotal:       16384000 kB\nMemFree:         1024000 kB\nMemAvailable:    8192000 kB\nBuffers:          204800 kB\n", 8192000 << 10},
		{"first-line", "MemAvailable:    4096 kB\n", 4096 << 10},
		{"absent", "MemTotal:       16384000 kB\nMemFree:         1024000 kB\n", 0},
		{"malformed", "MemAvailable:    lots kB\n", 0},
		{"empty", "", 0},
		{"no-trailing-newline", "MemAvailable: 2048 kB", 2048 << 10},
		{"missing-unit", "MemAvailable:    4096\n", 0},
		{"wrong-unit", "MemAvailable:    4096 MB\n", 0},
		{"negative", "MemAvailable:    -4096 kB\n", 0},
		{"largest", "MemAvailable:    9007199254740991 kB\n", 9007199254740991 << 10},
		{"wraps-to-1024", "MemAvailable:    18014398509481985 kB\n", 0},
		{"wraps-negative", "MemAvailable:    9007199254740992 kB\n", 0},
	}
	for _, c := range cases {
		if got := parseMemAvailable([]byte(c.in)); got != c.want {
			t.Errorf("%s: parseMemAvailable = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestWorkersRespectsExplicitSettings(t *testing.T) {
	// Explicit settings must bypass the memory cap entirely, even above
	// GOMAXPROCS.
	defer SetWorkers(0)
	for _, n := range []int{3, runtime.GOMAXPROCS(0) + 5} {
		SetWorkers(n)
		if got := Workers(); got != n {
			t.Fatalf("Workers() = %d with SetWorkers(%d)", got, n)
		}
	}
}

func TestWorkersDefaultIsPositive(t *testing.T) {
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d, want >= 1", got)
	}
}

// TestMapPointsErrorDeterminism pins the failure contract of mapPoints at
// every pool width: all points are evaluated even when some fail, and the
// reported error is the lowest-index one — identical for 1, 2, or 8 workers.
func TestMapPointsErrorDeterminism(t *testing.T) {
	defer SetWorkers(0)
	const n = 10
	failAt := map[int]bool{3: true, 7: true}
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		var mu sync.Mutex
		evaluated := make(map[int]bool)
		out, err := mapPoints(n, func(i int) (int, error) {
			mu.Lock()
			evaluated[i] = true
			mu.Unlock()
			if failAt[i] {
				return 0, fmt.Errorf("point %d failed", i)
			}
			return i * i, nil
		})
		if err == nil || err.Error() != "point 3 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index error \"point 3 failed\"", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: out = %v, want nil on error", workers, out)
		}
		if len(evaluated) != n {
			t.Fatalf("workers=%d: evaluated %d of %d points; a failure must not skip the rest", workers, len(evaluated), n)
		}
	}
}

// TestMapPointsResultsIndependentOfWidth checks the success contract: results
// land in index order for any worker count.
func TestMapPointsResultsIndependentOfWidth(t *testing.T) {
	defer SetWorkers(0)
	const n = 17
	var want []int
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		out, err := mapPoints(n, func(i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = out
			continue
		}
		if !equalInts(out, want) {
			t.Fatalf("workers=%d: results differ from width-1 run:\n  got  %v\n  want %v", workers, out, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
