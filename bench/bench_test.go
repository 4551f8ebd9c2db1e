package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data        []float64
		q1, med, q3 float64
	}{
		{data: []float64{1, 2}, q1: 0.75, med: 1.5, q3: 2.25},
		{data: []float64{1, 2, 3, 4, 5}, q1: 1.5, med: 3, q3: 4.5},
		{data: []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, q1: 2.75, med: 5.5, q3: 8.25},
		{data: []float64{7}, q1: 7, med: 7, q3: 7},
	} {
		s := summarize("s", "host", c.data)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", c.data, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
		if s.N != len(c.data) || s.Min > s.Median || s.Max < s.Median {
			t.Errorf("%v: min %v max %v n %d", c.data, s.Min, s.Max, s.N)
		}
	}
	if got := summarize("s", "host", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}).spread(); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] has children a [10,40] and b [50,70]; a has child c [20,25].
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", StartUs: 0, EndUs: 100},
		{ID: 1, Parent: 0, Name: "a", StartUs: 10, EndUs: 40},
		{ID: 2, Parent: 1, Name: "c", StartUs: 20, EndUs: 25},
		{ID: 3, Parent: 0, Name: "b", StartUs: 50, EndUs: 70},
	}
	selfTimes(spans)
	for i, want := range []float64{50, 25, 5, 20} {
		if spans[i].SelfUs != want {
			t.Errorf("%s: self %v, want %v", spans[i].Name, spans[i].SelfUs, want)
		}
	}
	if top := selfByName(spans); top[0].Name != "root" || top[1].Name != "a" {
		t.Errorf("selfByName order: %v", top)
	}

	tr := newTracer("w")
	endOuter := tr.begin("outer")
	tr.begin("inner")()
	endOuter()
	tr.begin("next")()
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 || tr.spans[0].Workload != "w" {
		t.Errorf("parents: %+v", tr.spans)
	}
	var none *tracer
	none.begin("ignored")() // a nil tracer records nothing and must not panic
}

func TestNamesUnitsAndLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Clock != "host" && m.Clock != "virtual" && m.Clock != "count" {
			t.Errorf("%s: clock = %q", m.Name, m.Clock)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
		if m.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
	}
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(file))
	}
	var want, got any
	if err := json.Unmarshal(file, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(manifestJSON()), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
}

func TestSeededInputsAreReproducible(t *testing.T) {
	nominal := []int{16, 1 << 10, 64 << 10, 1 << 20}
	a, b, c := newPass(7, 1, nil), newPass(7, 1, nil), newPass(8, 1, nil)
	sa, sb, sc := a.sizes(nominal, 8), b.sizes(nominal, 8), c.sizes(nominal, 8)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("same seed, different sweeps: %v vs %v", sa, sb)
	}
	if reflect.DeepEqual(sa, sc) {
		t.Errorf("seeds 7 and 8 drew the same sweep %v", sa)
	}
	if !sort.IntsAreSorted(sa) {
		t.Errorf("sweep %v is out of order", sa)
	}
	for i, n := range nominal {
		j := newPass(int64(i), 1, nil).jitter(n, 8)
		if j > n || j < n-n/512 || j%8 != 0 {
			t.Errorf("jitter(%d) = %d, want a multiple of 8 in [%d, %d]", n, j, n-n/512, n)
		}
	}
	buf := make([]byte, 300)
	pattern(buf, 7, 3)
	if !patternOK(buf, 7, 3) || patternOK(buf, 7, 4) || patternOK(buf, 8, 3) {
		t.Error("pattern does not identify its seed and salt")
	}
	buf[299]++
	if patternOK(buf, 7, 3) {
		t.Error("pattern check missed a corrupted last byte")
	}

	// A whole (smoke-sized) pass: same seed, same virtual results; another
	// seed, another fault plan and so another digest.
	wl, _ := workloadByName("faults-16")
	digest := func(seed int64) string {
		p := newPass(seed, smokeDiv, nil)
		wl.run(p)
		if p.failed != 0 {
			t.Errorf("seed %d: %d failed checks: %v", seed, p.failed, p.failures)
		}
		return hex.EncodeToString(p.digest.Sum(nil))
	}
	if d1, d2 := digest(1), digest(1); d1 != d2 {
		t.Errorf("seed 1 twice: digests %s and %s", d1, d2)
	}
	if digest(1) == digest(2) {
		t.Error("seeds 1 and 2 share a digest")
	}
}

func TestVerdictAppliesBoundAndSpread(t *testing.T) {
	lower := metric{Name: "host_s", Better: "lower", Bound: 0.08}
	higher := metric{Name: "rate", Better: "higher", Bound: 0.08}
	tight := func(v float64) summary { return summary{Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	noisy := summary{Median: 1, Q1: 0.9, Q3: 1.1}
	for _, c := range []struct {
		m             metric
		base, changed summary
		want          string
	}{
		{lower, tight(1), tight(1.05), "same"},
		{lower, tight(1), tight(1.09), "REGRESSION"},
		{lower, tight(1), tight(0.9), "better"},
		{higher, tight(1), tight(0.9), "REGRESSION"},
		{higher, tight(1), tight(1.2), "better"},
		{lower, noisy, tight(1.5), "unresolved"},
		{lower, tight(1), noisy, "unresolved"},
	} {
		if got := verdict(c.m, c.base, c.changed); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base.Median, c.changed.Median, got, c.want)
		}
	}
}

func TestEnvironmentClearsSimulatorSettings(t *testing.T) {
	t.Setenv("CMPI_SIM_WORKERS", "4")
	t.Setenv("MV2_SMP_EAGERSIZE", "4096")
	var msg bytes.Buffer
	env := environment(3, &msg)
	if os.Getenv("CMPI_SIM_WORKERS") != "" || os.Getenv("MV2_SMP_EAGERSIZE") != "" {
		t.Error("settings were not cleared")
	}
	if len(env.Cleared) != 2 || !strings.Contains(msg.String(), "CMPI_SIM_WORKERS") {
		t.Errorf("cleared %v, said %q", env.Cleared, msg.String())
	}
	if env.Seed != 3 || env.NProc < 1 || env.GoVersion == "" {
		t.Errorf("env = %+v", env)
	}
}

// checkResultLine parses the contract's last line and checks it carries
// exactly the wanted metrics.
func checkResultLine(t *testing.T, res wlResult, want []metric) {
	t.Helper()
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(res)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Errorf("result line lacks correct/attempted/failed: %s", resultLine(res))
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics on the result line, want %d", len(line.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit || math.IsNaN(*got.Value) {
			t.Errorf("%s: missing or malformed on the result line", m.Name)
		}
	}
}

func TestSmokeRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 1/20 size")
	}
	for _, wl := range workloads {
		res, tr := runWorkload(config{seed: 1, smoke: true}, wl)
		if tr != nil {
			t.Errorf("%s: tracer without --trace", wl.name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 3 || res.Metrics[failFrac].Median != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", wl.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, m := range endToEnd {
			if s := res.Metrics[m.Name]; s.Median <= 0 || s.Unit != m.Unit || s.Clock != m.Clock {
				t.Errorf("%s: %s = %+v", wl.name, m.Name, s)
			}
		}
		checkResultLine(t, res, endToEnd)
		printWorkload(io.Discard, res, nil)
	}
}

func TestSmokeTracedPassReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer driver at 1/20 size")
	}
	wl, _ := workloadByName("pt2pt-local")
	res, tr := runWorkload(config{seed: 1, smoke: true, trace: true}, wl)
	if res.Failed != 0 {
		t.Errorf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	for _, m := range perLayer {
		if s, ok := res.Metrics[m.Name]; !ok || s.Unit != m.Unit || s.Clock != m.Clock {
			t.Errorf("%s: missing or mislabelled: %+v", m.Name, s)
		}
	}
	checkResultLine(t, res, perLayer)
	// The paper's "Opt" column never touches the HCA after init.
	if res.Metrics["mpi.ops_hca"].Median != 0 || res.Metrics["mpi.ops_shm"].Median == 0 || res.Metrics["mpi.ops_cma"].Median == 0 {
		t.Errorf("pt2pt-local channel ops: shm %v cma %v hca %v", res.Metrics["mpi.ops_shm"].Median, res.Metrics["mpi.ops_cma"].Median, res.Metrics["mpi.ops_hca"].Median)
	}
	if tr == nil || len(tr.spans) == 0 {
		t.Fatal("traced pass recorded no spans")
	}
	path := t.TempDir() + "/spans.json"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != len(tr.spans) {
		t.Errorf("span file: %v, %d of %d spans", err, len(back), len(tr.spans))
	}
	for _, s := range back {
		if s.Workload != wl.name || s.EndUs < s.StartUs || s.SelfUs < -1 || s.Parent >= s.ID {
			t.Errorf("bad span %+v", s)
		}
	}
	printWorkload(io.Discard, res, tr)
}
