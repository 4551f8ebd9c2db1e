package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStartProfiles: off by default (no file, nothing started), and with
// paths both profiles are on disk once the returned stop has run.
func TestStartProfiles(t *testing.T) {
	mustStop := func(stop func() error, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := stop(); err != nil {
			t.Fatal(err)
		}
	}
	mustStop(startProfiles("", ""))

	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Error("the allocation profile was written before the run ended")
	}
	mustStop(stop, nil)
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty after stop (%v)", filepath.Base(p), err)
		}
	}
	// A second CPU profile can start: the first one was really stopped.
	mustStop(startProfiles(filepath.Join(dir, "again.prof"), ""))
}

// repro runs the command with args and returns what it wrote to stdout.
func repro(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestRunModes drives every mode through run and checks what each reports.
func TestRunModes(t *testing.T) {
	dir := t.TempDir()
	golden, fattree := filepath.Join(dir, "golden.trace"), filepath.Join(dir, "fattree.trace")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list"}, "\next-scale\n"},
		{[]string{"-fig", "ext-scale"}, "  ranks  time (ms)\n  256    6.46     \n  1024   7.52     \n"},
		{[]string{"-csv", "-fig", "ext-scale"}, "ranks,time (ms)\n256,6.46\n1024,7.52\n"},
		{[]string{"-ranks", "64"}, "scale allreduce: 64 ranks, 2 hosts, 1 racks\n  virtual completion: 3.790 ms\n"},
		{[]string{"-trace-out", golden}, ""},
		{[]string{"-trace-out", fattree, "-trace-job", "fattree"}, ""},
		{[]string{"-replay", golden}, "trace replay: 844 records, 16 ranks"},
		{[]string{"-trace-diff", golden, golden}, "traces identical\n"},
		{[]string{"-fault-seed", "42"}, "minimal repro: rank-crash rank=1 at=40.000us\n"},
	} {
		out, err := repro(t, tc.args...)
		if err != nil {
			t.Errorf("repro %q: %v", tc.args, err)
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("repro %q printed\n%s\nwant it to contain %q", tc.args, out, tc.want)
		}
	}

	out, err := repro(t, "-trace-diff", golden, fattree)
	if !errors.Is(err, errDiverged) || !strings.Contains(out, "header differs: ranks=16") {
		t.Errorf("-trace-diff of two jobs: error %v, output %q; want errDiverged and the first difference", err, out)
	}
}

// TestReplayFailsOnAnomalies: a receive without its send is an anomaly, so
// -replay prints the tables and fails; a send without its receive (a failed
// recording) replays cleanly.
func TestReplayFailsOnAnomalies(t *testing.T) {
	dir := t.TempDir()
	write := func(name, records string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("cmpi-trace v1 ranks=2 cell=8192\n"+records), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	orphanRecv := write("orphan-recv.trace", "1000 recv 1 0 7 0 64 shm-eager 0\n")
	out, err := repro(t, "-replay", orphanRecv)
	if err == nil || !strings.Contains(err.Error(), "replay: 1 anomalies") {
		t.Errorf("-replay of a receive without its send: error %v, want 1 anomaly", err)
	}
	if !strings.Contains(out, "anomalies") {
		t.Errorf("-replay printed\n%s\nwant the anomaly count in the tables", out)
	}

	unmatched := write("unmatched-send.trace", "1000 send 0 1 7 0 64 shm-eager 0\n")
	if out, err := repro(t, "-replay", unmatched); err != nil || !strings.Contains(out, "unmatched sends") {
		t.Errorf("-replay of a send without its receive: error %v, output\n%s\nwant success and the unmatched count", err, out)
	}
}

// TestRunRejectsBadInput: input run cannot act on is a named error, and the
// ones main exits 2 on are usage errors.
func TestRunRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	for _, tc := range []struct {
		args  []string
		want  string
		usage bool
	}{
		{[]string{"-fig", "fig99"}, `unknown experiment "fig99"`, true},
		{[]string{"-trace-out", filepath.Join(t.TempDir(), "x.trace"), "-trace-job", "nope"}, `unknown trace job "nope"`, false},
		{[]string{"-trace-diff", missing}, "usage: repro -trace-diff A.trace B.trace", true},
		{[]string{"-trace-diff", missing, missing}, "trace-diff: " + missing, true},
		{[]string{"-nope"}, "flag provided but not defined: -nope", true},
		{[]string{"-ranks", "-5", "-fig", "fig7c"}, "-ranks -5", true},
		{[]string{"-fault-seed", "-7", "-fig", "fig7c"}, "-fault-seed -7", true},
		{[]string{"-j", "-3", "-fig", "fig7c"}, "-j -3", true},
	} {
		out, err := repro(t, tc.args...)
		var usage usageError
		if err == nil || !strings.Contains(err.Error(), tc.want) || errors.As(err, &usage) != tc.usage {
			t.Errorf("repro %q: error %v, want one containing %q (usage error: %v)", tc.args, err, tc.want, tc.usage)
		}
		if out != "" {
			t.Errorf("repro %q printed %q before failing", tc.args, out)
		}
	}
}
