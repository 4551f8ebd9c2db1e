package cmpi_test

// Integration tests of the public facade: everything a downstream user
// touches, exercised end to end.

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cmpi"
)

func paperPair(t testing.TB, opts cmpi.Options) *cmpi.World {
	t.Helper()
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	d, err := cmpi.TwoContainersSockets(clu, true, cmpi.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cmpi.NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPublicQuickstartFlow(t *testing.T) {
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	d, err := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cmpi.NewWorld(d, cmpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *cmpi.Rank) error {
		// Ring, collective, one-sided, communicator — the README flows.
		right, left := (r.Rank()+1)%r.Size(), (r.Rank()-1+r.Size())%r.Size()
		in := make([]byte, 1)
		r.Sendrecv(right, 0, []byte{byte(r.Rank())}, left, 0, in)
		if in[0] != byte(left) {
			return fmt.Errorf("ring got %d from %d", in[0], left)
		}
		if sum := r.AllreduceInt64(1, cmpi.SumInt64); sum != int64(r.Size()) {
			return fmt.Errorf("allreduce %d", sum)
		}
		win := r.WinCreate(make([]byte, 64))
		win.Fence()
		win.Put((r.Rank()+1)%r.Size(), 0, []byte{1})
		win.Fence()
		win.Free()
		sub := r.CommWorld().Split(r.Rank()%2, r.Rank())
		sub.Barrier()
		if got := len(r.LocalRanks()); got != 4 {
			return fmt.Errorf("locality sees %d ranks, want 4", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxBodyTime() <= 0 {
		t.Error("no virtual time elapsed")
	}
}

func TestPublicWaitAnyTestAny(t *testing.T) {
	w := paperPair(t, cmpi.DefaultOptions())
	err := w.Run(func(r *cmpi.Rank) error {
		if r.Rank() == 0 {
			r.Compute(5000)
			r.Send(1, 2, []byte("second"))
			r.Send(1, 1, []byte("first!"))
			return nil
		}
		buf1 := make([]byte, 16)
		buf2 := make([]byte, 16)
		rq1 := r.Irecv(0, 1, buf1)
		rq2 := r.Irecv(0, 2, buf2)
		if _, _, ok := r.TestAny(rq1, rq2); ok {
			// Possible only if messages already arrived; fine either way.
			_ = ok
		}
		idx, st := r.WaitAny(rq1, rq2)
		if idx != 1 || st.Tag != 2 {
			return fmt.Errorf("WaitAny picked %d (%+v), want the tag-2 message first", idx, st)
		}
		r.Wait(rq1)
		if !r.TestAll(rq1, rq2) {
			return fmt.Errorf("TestAll false after both completed")
		}
		if !bytes.Equal(buf1[:6], []byte("first!")) || !bytes.Equal(buf2[:6], []byte("second")) {
			return fmt.Errorf("payloads scrambled: %q %q", buf1[:6], buf2[:6])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicWorkloadsRun(t *testing.T) {
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	d, err := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	w, err := cmpi.NewWorld(d, cmpi.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := cmpi.Graph500Defaults(10)
	p.Roots = 1
	res, err := cmpi.RunGraph500(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated || res.TEPS <= 0 {
		t.Fatalf("graph500 result %+v", res)
	}
	for name, kernel := range map[string]func(*cmpi.World, cmpi.NPBClass) (cmpi.NPBResult, error){
		"EP": cmpi.RunEP, "CG": cmpi.RunCG, "FT": cmpi.RunFT, "IS": cmpi.RunIS,
	} {
		clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
		d, _ := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
		w, _ := cmpi.NewWorld(d, cmpi.DefaultOptions())
		res, err := kernel(w, cmpi.ClassS)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Verified {
			t.Fatalf("%s.S not verified", name)
		}
	}
}

func TestPublicOSUBenches(t *testing.T) {
	cfg := cmpi.OSUConfig{Iters: 10, Warmup: 2, Window: 8}
	lat, err := cmpi.OSULatency(paperPair(t, cmpi.DefaultOptions()), []int{1024}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := lat.At(1024); !ok || v <= 0 {
		t.Fatalf("latency series %v", lat)
	}
	bw, err := cmpi.OSUBandwidth(paperPair(t, cmpi.DefaultOptions()), []int{65536}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := bw.At(65536); v < 1000 {
		t.Fatalf("bandwidth %v MB/s too low", bw)
	}
}

func TestPublicEncodingHelpers(t *testing.T) {
	if got := cmpi.DecodeFloat64(cmpi.EncodeFloat64(3.25)); got != 3.25 {
		t.Errorf("float round trip %v", got)
	}
	vs := []int64{-1, 0, 1 << 40}
	if got := cmpi.DecodeInt64s(cmpi.EncodeInt64s(vs)); got[0] != -1 || got[2] != 1<<40 {
		t.Errorf("int64 round trip %v", got)
	}
	// The scalar helpers allocate only what they return: the 8-byte result
	// of an encode, nothing for a decode. The append-style forms reuse what
	// they get.
	var b []byte
	var f float64
	if n := testing.AllocsPerRun(20, func() { b = cmpi.EncodeFloat64(-0.5) }); n != 1 {
		t.Errorf("EncodeFloat64: %v allocs per call, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { f = cmpi.DecodeFloat64(b) }); n != 0 || f != -0.5 {
		t.Errorf("DecodeFloat64: %v allocs per call, value %v; want 0, -0.5", n, f)
	}
	buf, out := make([]byte, 0, 24), make([]int64, 0, 3)
	if n := testing.AllocsPerRun(20, func() {
		buf = cmpi.AppendInt64s(buf[:0], vs)
		out = cmpi.DecodeInt64sInto(out[:0], buf)
	}); n != 0 || len(out) != 3 || out[0] != -1 || out[2] != 1<<40 {
		t.Errorf("AppendInt64s/DecodeInt64sInto with capacity: %v allocs, got %v", n, out)
	}
	if got := cmpi.DecodeFloat64sInto(nil, cmpi.AppendFloat64s(nil, []float64{1.5, -2})); len(got) != 2 || got[0] != 1.5 || got[1] != -2 {
		t.Errorf("AppendFloat64s/DecodeFloat64sInto from nil: %v", got)
	}
	if cmpi.TimeFromSeconds(1).Micros() != 1e6 {
		t.Error("TimeFromSeconds wrong")
	}
	if cmpi.TimeFromMicros(2.5).Nanos() != 2500 {
		t.Error("TimeFromMicros wrong")
	}
}

func TestPublicDeterminism(t *testing.T) {
	run := func() string {
		clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
		d, _ := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
		w, _ := cmpi.NewWorld(d, cmpi.DefaultOptions())
		if err := w.Run(func(r *cmpi.Rank) error {
			rng := rand.New(rand.NewSource(int64(r.Rank())))
			for i := 0; i < 20; i++ {
				sz := 1 + rng.Intn(1<<14) // random sizes, matched pattern
				shift := 1 + i%(r.Size()-1)
				dst := (r.Rank() + shift) % r.Size()
				src := (r.Rank() - shift + r.Size()) % r.Size()
				rq := r.Irecv(src, i, make([]byte, 1<<14))
				r.Send(dst, i, make([]byte, sz))
				r.Wait(rq)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.Digest()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("public API runs diverge: digest %s, then %s", a, b)
	}
}

func TestPublicStockVsDefaultOptionsDiffer(t *testing.T) {
	stock := cmpi.StockOptions()
	aware := cmpi.DefaultOptions()
	if stock.Mode == aware.Mode {
		t.Error("StockOptions should flip the mode")
	}
	if stock.Tunables != aware.Tunables {
		t.Error("both options should share the tuned channel parameters")
	}
	tun := cmpi.DefaultTunables()
	if tun.SMPEagerSize != 8192 || tun.SMPLengthQueue != 128*1024 || tun.IBAEagerThreshold != 17*1024 {
		t.Errorf("paper-tuned values wrong: %+v", tun)
	}
	if cmpi.ChameleonSpec().Hosts != 16 {
		t.Error("chameleon spec wrong")
	}
	if cmpi.DefaultPerfParams().IBBWInter <= 0 {
		t.Error("perf params not initialized")
	}
}

func TestPublicNewClusterE(t *testing.T) {
	if _, err := cmpi.NewClusterE(cmpi.ClusterSpec{Hosts: 0}); err == nil {
		t.Error("NewClusterE must reject an empty spec")
	}
	clu, err := cmpi.NewClusterE(cmpi.ClusterSpec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	if err != nil || clu == nil {
		t.Fatalf("NewClusterE(valid) = %v, %v", clu, err)
	}
}

func TestPublicFaultInjection(t *testing.T) {
	clu := cmpi.NewCluster(cmpi.ClusterSpec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	d, err := cmpi.Containers(clu, 2, 8, cmpi.PaperScenarioOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := cmpi.DefaultOptions()
	opts.Profile = true
	opts.FaultPlan = cmpi.NewFaultPlan().
		LinkFlap(0, 20*cmpi.TimeFromMicros(1), 100*cmpi.TimeFromMicros(1)).
		CMAFail(0, 0, 0).
		SendDrops(1, 0, 0, 2)
	w, err := cmpi.NewWorld(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *cmpi.Rank) error {
		buf := cmpi.EncodeFloat64s(make([]float64, 32768))
		r.Allreduce(buf, cmpi.SumFloat64)
		return nil
	})
	if err != nil {
		t.Fatalf("faulty public-API run failed: %v", err)
	}
	fs := w.Prof.TotalFaults()
	if fs.Total() == 0 {
		t.Errorf("fault plan left no trace in the profile: %+v", fs)
	}
}

// TestReadmeEnvTableMatchesSources keeps the README's environment table
// honest: the CMPI_* variables it lists are exactly the ones the library and
// commands read (os.Getenv/os.LookupEnv in non-test sources outside bench/,
// which is a module of its own). Both are empty now: the library is
// configured by options and MV2_* variables, the sweep width by repro -j.
func TestReadmeEnvTableMatchesSources(t *testing.T) {
	names := func(re *regexp.Regexp, text []byte, into map[string]bool) {
		for _, m := range re.FindAllSubmatch(text, -1) {
			into[string(m[1])] = true
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented, read := map[string]bool{}, map[string]bool{}
	names(regexp.MustCompile("(?m)^\\| `(CMPI_[A-Z0-9_]+)` \\|"), readme, documented)
	envRead := regexp.MustCompile(`os\.(?:Getenv|LookupEnv)\("(CMPI_[A-Z0-9_]+)"\)`)
	for _, probe := range []string{`os.Getenv("CMPI_X")`, `os.LookupEnv("CMPI_X")`} {
		if !envRead.MatchString(probe) {
			t.Fatalf("the scan misses %s; it is broken", probe)
		}
	}
	scanned := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || strings.HasPrefix(path, ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		names(envRead, src, read)
		scanned[filepath.ToSlash(path)] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"cmd/repro/main.go", "internal/experiments/parallel.go", "internal/mpi/env.go"} {
		if !scanned[path] {
			t.Fatalf("the scan did not read %s; it is broken", path)
		}
	}
	if !reflect.DeepEqual(documented, read) {
		t.Errorf("README environment table lists %v; the sources read %v", documented, read)
	}
}

// TestDocsNameOnlyExistingReproFlags keeps the docs from sending a reader to a
// flag that is gone: every flag on a `repro` or `cmpirun` command line in the
// docs readCommandDocs lists is one that command defines. A command line runs
// to the end of the line, a closing backtick or a shell operator.
func TestDocsNameOnlyExistingReproFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, cmd := range []string{"repro", "cmpirun"} {
		src, err := os.ReadFile("cmd/" + cmd + "/main.go")
		if err != nil {
			t.Fatal(err)
		}
		defined[cmd] = map[string]bool{}
		for _, m := range regexp.MustCompile(`\b(?:flag|fs)\.\w+\("([a-z][a-z0-9-]*)"`).FindAllSubmatch(src, -1) {
			defined[cmd][string(m[1])] = true
		}
		if len(defined[cmd]) == 0 {
			t.Fatalf("found no flag defined in cmd/%s/main.go; the scan is broken", cmd)
		}
	}
	line := regexp.MustCompile("\\b(repro|cmpirun)((?:[ \t]+[^ \t\n`|;&<>()]+)+)")
	flag := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	checked := 0
	for path, text := range readCommandDocs(t) {
		for _, m := range line.FindAllSubmatch(text, -1) {
			cmd := string(m[1])
			for _, arg := range strings.Fields(string(m[2])) {
				if f := flag.FindStringSubmatch(arg); f != nil {
					checked++
					if !defined[cmd][f[1]] {
						t.Errorf("%s names %s -%s, which cmd/%s does not define", path, cmd, f[1], cmd)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented flag; the scan is broken")
	}
}

// TestDocsNameOnlyExistingCommands keeps the same docs from sending a reader
// to a command that is gone: every `go run ./<dir>` names a directory that
// holds a package main.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	goRun := regexp.MustCompile(`go run \./([A-Za-z0-9_./-]*[A-Za-z0-9_-])`)
	pkgMain := regexp.MustCompile(`(?m)^package main$`)
	checked := 0
	for path, text := range readCommandDocs(t) {
		for _, m := range goRun.FindAllSubmatch(text, -1) {
			checked++
			dir := string(m[1])
			srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			isMain := false
			for _, src := range srcs {
				text, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasSuffix(src, "_test.go") && pkgMain.Match(text) {
					isMain = true
					break
				}
			}
			if !isMain {
				t.Errorf("%s says go run ./%s, which holds no package main", path, dir)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented go run; the scan is broken")
	}
}

// TestCIFuzzesEveryTarget keeps the CI fuzz smoke step from silently
// skipping a target: the step's list (<dir under internal/>:<name>) must
// name exactly the module's func Fuzz… declarations outside bench/, which is
// a module of its own.
func TestCIFuzzesEveryTarget(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b([a-z0-9]+):(Fuzz\w+)`).FindAllSubmatch(ci, -1) {
		listed["internal/"+string(m[1])+":"+string(m[2])] = true
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[filepath.ToSlash(filepath.Dir(path))+":"+string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 || len(listed) == 0 {
		t.Fatalf("found %d fuzz targets in the module and %d in ci.yml; the scan is broken", len(declared), len(listed))
	}
	if !reflect.DeepEqual(listed, declared) {
		t.Errorf("the CI fuzz step runs %v; the module declares %v", listed, declared)
	}
}

// readCommandDocs returns the text of every doc that tells a reader what to
// run, by path: the top-level docs, docs/*.md (not the per-change records
// under docs/perf/, which describe their own tree), the verify skill and the
// CI workflow.
func readCommandDocs(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
		".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")
	docs := map[string][]byte{}
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = text
	}
	return docs
}
