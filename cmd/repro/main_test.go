package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartProfiles: off by default (no file, nothing started), and with
// paths both profiles are on disk once the returned stop has run.
func TestStartProfiles(t *testing.T) {
	startProfiles("", "")()

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop := startProfiles(cpu, mem)
	if _, err := os.Stat(mem); err == nil {
		t.Error("the allocation profile was written before the run ended")
	}
	stop()
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty after stop (%v)", filepath.Base(p), err)
		}
	}
	// A second CPU profile can start: the first one was really stopped.
	startProfiles(filepath.Join(dir, "again.prof"), "")()
}
