package mltrain

import (
	"runtime"
	"testing"
)

// The gradients are AllocMem's, and the rank bodies run on the coroutines of
// the last world's, so a repeat of a training job allocates the engine and
// the library's per-world state, not its layers again: about 5 KB on 4 ranks
// with four layers of 1 to 64 KiB (7 KB while every body started a new
// coroutine), where making the layers anew took 0.339 MB.
func TestSecondWorldDataParallel(t *testing.T) {
	cfg := quickCfg(1<<10, 4<<10, 16<<10, 64<<10)
	job := func() {
		if _, err := DataParallel(trainWorld(t, 1, 2, 4, nil), cfg); err != nil {
			t.Fatal(err)
		}
	}
	job()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got > 16<<10 {
		t.Errorf("second DataParallel world allocated %.3f MB, want under 16 KiB", float64(got)/(1<<20))
	}
}
