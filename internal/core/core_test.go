package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"cmpi/internal/cluster"
	"cmpi/internal/shmem"
)

func TestTunablesValidate(t *testing.T) {
	if err := DefaultTunables().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []Tunables{
		{SMPEagerSize: 0, SMPLengthQueue: 1 << 17, IBAEagerThreshold: 1 << 14, UseCMA: true},
		{SMPEagerSize: 8192, SMPLengthQueue: 4096, IBAEagerThreshold: 1 << 14, UseCMA: true},
		{SMPEagerSize: 8192, SMPLengthQueue: 1 << 17, IBAEagerThreshold: 0, UseCMA: true},
		{SMPEagerSize: 8192, SMPLengthQueue: 1 << 17, IBAEagerThreshold: 1 << 14, RetryCount: -1},
		{SMPEagerSize: 8192, SMPLengthQueue: 1 << 17, IBAEagerThreshold: 1 << 14, RetryCount: MaxRetryCount + 1},
	}
	for i, tu := range bad {
		if err := tu.Validate(); err == nil {
			t.Errorf("tunables %d should be invalid: %+v", i, tu)
		}
	}
}

// paperHost builds a host with n paper-config containers and returns them.
func paperHost(t *testing.T, nContainers int) (*cluster.Cluster, []*cluster.Container) {
	t.Helper()
	c, err := cluster.New(cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 8, HCAsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	var cts []*cluster.Container
	for i := 0; i < nContainers; i++ {
		ct, err := c.Host(0).RunContainer(cluster.RunOpts{
			Privileged: true, ShareHostIPC: true, ShareHostPID: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, ct)
	}
	return c, cts
}

func TestDetectorFindsCoResidents(t *testing.T) {
	// Reproduce the paper's Fig. 6 scenario: 8 ranks, host1 runs containers
	// A (ranks 0,1), B (rank 4), C (rank 5); ranks 2,3,6,7 on host2.
	c, cts := paperHost(t, 3)
	reg := shmem.NewRegistry()
	a, b, cc := cts[0], cts[1], cts[2]
	host2 := c.Host(1)
	h2ct, _ := host2.RunContainer(cluster.RunOpts{Privileged: true, ShareHostIPC: true, ShareHostPID: true})

	envOf := map[int]*cluster.Container{0: a, 1: a, 4: b, 5: cc, 2: h2ct, 3: h2ct, 6: h2ct, 7: h2ct}
	dets := map[int]*Detector{}
	for r := 0; r < 8; r++ {
		d, err := NewDetector(reg, "job1", envOf[r], r, 8)
		if err != nil {
			t.Fatal(err)
		}
		dets[r] = d
		d.Publish()
	}
	// After the barrier, rank 0 on host1 must see exactly {0,1,4,5}.
	loc := dets[0].Snapshot()
	if want := []int{0, 1, 4, 5}; !reflect.DeepEqual(loc.LocalRanks, want) {
		t.Fatalf("host1 local ranks = %v, want %v", loc.LocalRanks, want)
	}
	if loc.LocalIndex != 0 || loc.LocalSize() != 4 {
		t.Fatalf("rank 0: index %d size %d", loc.LocalIndex, loc.LocalSize())
	}
	// Rank 5's local ordering is position 3.
	if got := dets[5].Snapshot(); got.LocalIndex != 3 {
		t.Fatalf("rank 5 local index = %d, want 3", got.LocalIndex)
	}
	// Rank 2 on host2 sees {2,3,6,7} with index 0.
	loc2 := dets[2].Snapshot()
	if want := []int{2, 3, 6, 7}; !reflect.DeepEqual(loc2.LocalRanks, want) {
		t.Fatalf("host2 local ranks = %v, want %v", loc2.LocalRanks, want)
	}
	if loc.IsLocal(2) || !loc.IsLocal(4) {
		t.Error("IsLocal wrong")
	}
	for r := 0; r < 8; r++ {
		checkIsLocal(t, dets[r])
	}
}

// isLocalMismatch returns the first r in [-1, len(list)] at which IsLocal
// disagrees with the container list, and whether there is one.
func isLocalMismatch(loc *Locality, list []byte) (int, bool) {
	for r := -1; r <= len(list); r++ {
		if want := r >= 0 && r < len(list) && list[r] != 0; loc.IsLocal(r) != want {
			return r, true
		}
	}
	return 0, false
}

// checkIsLocal compares d's snapshot with the container list it was read
// from, over every rank and one past each end.
func checkIsLocal(t *testing.T, d *Detector) {
	t.Helper()
	loc := d.Snapshot()
	if r, bad := isLocalMismatch(&loc, d.seg.Bytes()[:d.size]); bad {
		t.Fatalf("rank %d's view: IsLocal(%d) = %v, the container list disagrees", d.rank, r, loc.IsLocal(r))
	}
}

// TestDetectorSnapshotKeepsOnlyCoResidents: a rank's view is its
// co-residents and nothing per global rank — on a 4096-rank list with 32 set
// bytes, Snapshot allocates one slice of 32 ints.
func TestDetectorSnapshotKeepsOnlyCoResidents(t *testing.T) {
	const size, local = 4096, 32
	_, cts := paperHost(t, 1)
	reg := shmem.NewRegistry()
	var d *Detector
	for k := 0; k < local; k++ {
		var err error
		if d, err = NewDetector(reg, "j", cts[0], k*(size/local), size); err != nil {
			t.Fatal(err)
		}
		d.Publish()
	}
	var loc Locality
	if allocs := testing.AllocsPerRun(100, func() { loc = d.Snapshot() }); allocs != 1 {
		t.Errorf("Snapshot made %v allocations, want 1", allocs)
	}
	if len(loc.LocalRanks) != local || cap(loc.LocalRanks) != local {
		t.Errorf("LocalRanks has length %d and capacity %d, want %d of each", len(loc.LocalRanks), cap(loc.LocalRanks), local)
	}
	checkIsLocal(t, d)
}

func TestDetectorIsolatedIPCSeesOnlyItself(t *testing.T) {
	c, err := cluster.New(cluster.Spec{Hosts: 1, SocketsPerHost: 1, CoresPerSocket: 8, HCAsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := shmem.NewRegistry()
	a, _ := c.Host(0).RunContainer(cluster.RunOpts{Privileged: true}) // private IPC
	b, _ := c.Host(0).RunContainer(cluster.RunOpts{Privileged: true})
	da, _ := NewDetector(reg, "j", a, 0, 2)
	db, _ := NewDetector(reg, "j", b, 1, 2)
	da.Publish()
	db.Publish()
	if loc := da.Snapshot(); loc.LocalSize() != 1 || loc.LocalRanks[0] != 0 {
		t.Fatalf("isolated detector sees %v, want only itself", loc.LocalRanks)
	}
	checkIsLocal(t, da)
	checkIsLocal(t, db)
	// A rank whose detector could not attach falls back to hostname locality
	// and keeps the zero Locality: no rank is detected.
	if r, bad := isLocalMismatch(&Locality{}, make([]byte, 2)); bad {
		t.Errorf("fallback view: IsLocal(%d) = true", r)
	}
}

func TestDetectorRejectsBadRank(t *testing.T) {
	c, _ := cluster.New(cluster.Spec{Hosts: 1, SocketsPerHost: 1, CoresPerSocket: 2, HCAsPerHost: 1})
	reg := shmem.NewRegistry()
	if _, err := NewDetector(reg, "j", c.Host(0).NativeEnv(), 5, 4); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := NewDetector(reg, "j", c.Host(0).NativeEnv(), -1, 4); err == nil {
		t.Error("negative rank accepted")
	}
}

func TestDetectorPublicationOrderIrrelevantProperty(t *testing.T) {
	// Property: the detected set depends only on WHO published, never on
	// publication order — the lock-free byte list has no ordering hazards.
	f := func(perm []uint8) bool {
		const n = 8
		c, err := cluster.New(cluster.Spec{Hosts: 1, SocketsPerHost: 1, CoresPerSocket: 8, HCAsPerHost: 1})
		if err != nil {
			return false
		}
		reg := shmem.NewRegistry()
		env, _ := c.Host(0).RunContainer(cluster.RunOpts{ShareHostIPC: true, ShareHostPID: true})
		dets := make([]*Detector, n)
		for r := 0; r < n; r++ {
			dets[r], _ = NewDetector(reg, "j", env, r, n)
		}
		// Publish in the fuzzed order (possibly repeating — idempotent).
		for _, x := range perm {
			dets[int(x)%n].Publish()
		}
		for r := 0; r < n; r++ {
			dets[r].Publish() // everyone eventually publishes
		}
		want := []int{0, 1, 2, 3, 4, 5, 6, 7}
		for r := 0; r < n; r++ {
			loc := dets[r].Snapshot()
			if !reflect.DeepEqual(loc.LocalRanks, want) || loc.LocalIndex != r {
				return false
			}
			if _, bad := isLocalMismatch(&loc, dets[r].seg.Bytes()[:n]); bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTreatLocalMatrix(t *testing.T) {
	cases := []struct {
		name string
		mode Mode
		cap  PeerCapabilities
		want bool
	}{
		{"default same container", ModeDefault,
			PeerCapabilities{SameHost: true, SameHostname: true, SharedIPC: true, SharedPID: true}, true},
		{"default cross container co-resident", ModeDefault,
			PeerCapabilities{SameHost: true, SameHostname: false, SharedIPC: true, SharedPID: true}, false},
		{"aware cross container co-resident", ModeLocalityAware,
			PeerCapabilities{SameHost: true, SharedIPC: true, SharedPID: true, DetectedLocal: true}, true},
		{"aware isolated co-resident (no shared IPC)", ModeLocalityAware,
			PeerCapabilities{SameHost: true, SharedIPC: false, DetectedLocal: false}, false},
		{"aware cross host", ModeLocalityAware,
			PeerCapabilities{SameHost: false}, false},
		{"aware same container", ModeLocalityAware,
			PeerCapabilities{SameHost: true, SameHostname: true, SharedIPC: true, SharedPID: true, DetectedLocal: true}, true},
	}
	for _, tc := range cases {
		if got := TreatLocal(tc.mode, tc.cap); got != tc.want {
			t.Errorf("%s: TreatLocal = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelectPathThresholds(t *testing.T) {
	tun := DefaultTunables()
	local := PeerCapabilities{SameHost: true, SharedIPC: true, SharedPID: true, DetectedLocal: true}

	if p := SelectPath(ModeLocalityAware, tun, local, 100); p != PathSHMEager {
		t.Errorf("small local message: %v", p)
	}
	if p := SelectPath(ModeLocalityAware, tun, local, tun.SMPEagerSize-1); p != PathSHMEager {
		t.Errorf("eager boundary-1: %v", p)
	}
	if p := SelectPath(ModeLocalityAware, tun, local, tun.SMPEagerSize); p != PathCMARndv {
		t.Errorf("eager boundary: %v", p)
	}
	if p := SelectPath(ModeLocalityAware, tun, local, 1<<20); p != PathCMARndv {
		t.Errorf("large local message: %v", p)
	}

	// CMA disabled -> SHM rendezvous.
	noCMA := tun
	noCMA.UseCMA = false
	if p := SelectPath(ModeLocalityAware, noCMA, local, 1<<20); p != PathSHMRndv {
		t.Errorf("large local message, CMA off: %v", p)
	}
	// No shared PID namespace -> CMA impossible even if enabled.
	noPID := local
	noPID.SharedPID = false
	if p := SelectPath(ModeLocalityAware, tun, noPID, 1<<20); p != PathSHMRndv {
		t.Errorf("large local message, no PID ns: %v", p)
	}

	// Default mode, co-resident containers: everything goes HCA.
	crossCont := PeerCapabilities{SameHost: true, SharedIPC: true, SharedPID: true}
	if p := SelectPath(ModeDefault, tun, crossCont, 100); p != PathHCAEager {
		t.Errorf("default cross-container small: %v", p)
	}
	if p := SelectPath(ModeDefault, tun, crossCont, tun.IBAEagerThreshold); p != PathHCAEager {
		t.Errorf("HCA eager boundary: %v", p)
	}
	if p := SelectPath(ModeDefault, tun, crossCont, tun.IBAEagerThreshold+1); p != PathHCARndv {
		t.Errorf("HCA rendezvous boundary: %v", p)
	}
	// Aware mode recovers SHM for the same pair.
	crossCont.DetectedLocal = true
	if p := SelectPath(ModeLocalityAware, tun, crossCont, 100); p != PathSHMEager {
		t.Errorf("aware cross-container small: %v", p)
	}
}

func TestPathChannelClassification(t *testing.T) {
	want := map[Path]Channel{
		PathSHMEager: ChannelSHM,
		PathSHMRndv:  ChannelSHM,
		PathCMARndv:  ChannelCMA,
		PathHCAEager: ChannelHCA,
		PathHCARndv:  ChannelHCA,
	}
	for p, ch := range want {
		if p.Channel() != ch {
			t.Errorf("%v classified as %v, want %v", p, p.Channel(), ch)
		}
	}
}

func TestSelectPathNeverPicksImpossibleChannelProperty(t *testing.T) {
	tun := DefaultTunables()
	f := func(mode bool, sameHost, sameName, ipc, pid, detected bool, size uint32) bool {
		m := ModeDefault
		if mode {
			m = ModeLocalityAware
		}
		cap := PeerCapabilities{
			SameHost: sameHost, SameHostname: sameName && sameHost,
			SharedIPC: ipc && sameHost, SharedPID: pid && sameHost,
			DetectedLocal: detected && ipc && sameHost,
		}
		// Same hostname in our model implies same container implies all
		// namespaces shared.
		if cap.SameHostname {
			cap.SharedIPC, cap.SharedPID = true, true
		}
		p := SelectPath(m, tun, cap, int(size%(1<<22)))
		switch p.Channel() {
		case ChannelSHM:
			return cap.SharedIPC
		case ChannelCMA:
			return cap.SharedPID && cap.SharedIPC
		default:
			return true // HCA is always reachable in these scenarios
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorMillionRankScalability(t *testing.T) {
	// Sec. IV-B: "Taking a one million processes MPI job, for instance,
	// the whole container list only occupies 1 MB memory space."
	c, err := cluster.New(cluster.Spec{Hosts: 1, SocketsPerHost: 2, CoresPerSocket: 12, HCAsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := shmem.NewRegistry()
	env, _ := c.Host(0).RunContainer(cluster.RunOpts{ShareHostIPC: true, ShareHostPID: true})
	const million = 1 << 20
	d, err := NewDetector(reg, "big", env, 123456, million)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.ListBytes(); got != million {
		t.Fatalf("container list occupies %d bytes, paper promises 1 MB", got)
	}
	d.Publish()
	loc := d.Snapshot()
	if loc.LocalSize() != 1 || loc.LocalRanks[0] != 123456 || loc.LocalIndex != 0 {
		t.Fatalf("million-rank snapshot wrong: %+v", loc.LocalRanks)
	}
	checkIsLocal(t, d)
}
