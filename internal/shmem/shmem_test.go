package shmem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"cmpi/internal/cluster"
)

func twoHostSetup(t *testing.T) (*cluster.Cluster, *Registry) {
	t.Helper()
	c, err := cluster.New(cluster.Spec{Hosts: 2, SocketsPerHost: 2, CoresPerSocket: 4, HCAsPerHost: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c, NewRegistry()
}

func TestSharedIPCSeesSameSegment(t *testing.T) {
	c, r := twoHostSetup(t)
	h := c.Host(0)
	a, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: true})
	b, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: true})

	sa, err := r.CreateOrAttach(a, "locality", 64)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.CreateOrAttach(b, "locality", 64)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatal("containers sharing host IPC namespace must attach the same segment")
	}
	sa.Bytes()[7] = 42
	if sb.Bytes()[7] != 42 {
		t.Fatal("write through one attach not visible through the other")
	}
	if r.Count() != 1 {
		t.Fatalf("registry holds %d segments, want 1", r.Count())
	}
}

func TestIsolatedIPCGetsPrivateSegment(t *testing.T) {
	c, r := twoHostSetup(t)
	h := c.Host(0)
	a, _ := h.RunContainer(cluster.RunOpts{}) // private IPC
	b, _ := h.RunContainer(cluster.RunOpts{})

	sa, _ := r.CreateOrAttach(a, "locality", 64)
	sb, _ := r.CreateOrAttach(b, "locality", 64)
	if sa == sb {
		t.Fatal("isolated containers must not share segments")
	}
	sa.Bytes()[0] = 1
	if sb.Bytes()[0] != 0 {
		t.Fatal("isolation violated")
	}
	if _, err := r.Attach(b, "only-in-a"); err == nil {
		t.Fatal("attach of nonexistent segment must fail")
	}
}

func TestSegmentsDoNotSpanHosts(t *testing.T) {
	c, r := twoHostSetup(t)
	a, _ := c.Host(0).RunContainer(cluster.RunOpts{ShareHostIPC: true})
	b, _ := c.Host(1).RunContainer(cluster.RunOpts{ShareHostIPC: true})
	sa, _ := r.CreateOrAttach(a, "locality", 64)
	sb, _ := r.CreateOrAttach(b, "locality", 64)
	if sa == sb {
		t.Fatal("segments must be per-host")
	}
}

func TestNativeSharesWithPaperContainers(t *testing.T) {
	c, r := twoHostSetup(t)
	h := c.Host(0)
	ct, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: true})
	native := h.NativeEnv()
	s1, _ := r.CreateOrAttach(native, "x", 16)
	s2, err := r.Attach(ct, "x")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("host-IPC container must see segments created natively")
	}
}

func TestAttachSizeRules(t *testing.T) {
	c, r := twoHostSetup(t)
	env := c.Host(0).NativeEnv()
	if _, err := r.CreateOrAttach(env, "s", 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := r.CreateOrAttach(env, "s", -4); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := r.CreateOrAttach(env, "s", 128); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateOrAttach(env, "s", 64); err != nil {
		t.Errorf("smaller re-attach should succeed: %v", err)
	}
	if _, err := r.CreateOrAttach(env, "s", 256); err == nil {
		t.Error("larger re-attach should fail")
	}
}

func TestUnlink(t *testing.T) {
	c, r := twoHostSetup(t)
	env := c.Host(0).NativeEnv()
	seg, _ := r.CreateOrAttach(env, "gone", 8)
	if err := r.Unlink(env, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unlink(env, "gone"); err == nil {
		t.Error("double unlink should fail")
	}
	// Existing reference still usable (shm_unlink semantics).
	seg.Bytes()[0] = 9
	// And the name is free for a fresh segment.
	seg2, err := r.CreateOrAttach(env, "gone", 8)
	if err != nil {
		t.Fatal(err)
	}
	if seg2 == seg || seg2.Bytes()[0] != 0 {
		t.Error("unlinked name must map to a fresh segment")
	}
}

func TestSegmentIsolationProperty(t *testing.T) {
	// Property: writes through container A's attach are visible through B's
	// attach iff A and B share an IPC namespace.
	f := func(shareA, shareB bool, val byte) bool {
		c, err := cluster.New(cluster.Spec{Hosts: 1, SocketsPerHost: 1, CoresPerSocket: 8})
		if err != nil {
			return false
		}
		r := NewRegistry()
		h := c.Host(0)
		a, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: shareA})
		b, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: shareB})
		sa, _ := r.CreateOrAttach(a, "p", 4)
		sb, _ := r.CreateOrAttach(b, "p", 4)
		sa.Bytes()[1] = val
		visible := sb.Bytes()[1] == val
		shared := shareA && shareB
		if val == 0 {
			return true // write indistinguishable from zero value
		}
		return visible == shared
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBytesCommitLazily pins the size-only reserve: creating, re-attaching
// (including a rejected oversize attach) and counting a segment never commit
// its backing store; the first Bytes call does, once, and every attach sees
// those bytes.
func TestBytesCommitLazily(t *testing.T) {
	c, r := twoHostSetup(t)
	h := c.Host(0)
	a, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: true})
	b, _ := h.RunContainer(cluster.RunOpts{ShareHostIPC: true})
	sa, err := r.CreateOrAttach(a, "ring", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.CreateOrAttach(b, "ring", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateOrAttach(b, "ring", 16<<20); err == nil {
		t.Error("attach larger than the segment should fail")
	}
	if sa.Size() != 8<<20 || sb.Size() != 8<<20 {
		t.Errorf("Size = %d / %d, want the creator's %d", sa.Size(), sb.Size(), 8<<20)
	}
	if r.Count() != 1 {
		t.Errorf("Count = %d, want 1", r.Count())
	}
	if sa.data != nil {
		t.Fatal("backing store committed before any Bytes call")
	}
	var wg sync.WaitGroup
	views := make([][]byte, 8)
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seg := sa
			if i%2 == 1 {
				seg = sb
			}
			views[i] = seg.Bytes()
		}()
	}
	wg.Wait()
	for i, v := range views {
		if len(v) != 8<<20 || &v[0] != &views[0][0] {
			t.Fatalf("view %d: len %d, not the one shared backing store", i, len(v))
		}
	}
}

// TestAttachFaultVetoesBeforeTheTable checks the hook order around the lazy
// segment: a vetoed attach creates nothing, and
// leaves an existing segment (and its uncommitted bytes) untouched.
func TestAttachFaultVetoesBeforeTheTable(t *testing.T) {
	c, r := twoHostSetup(t)
	env := c.Host(0).NativeEnv()
	injected := errors.New("injected attach failure")
	veto := false
	var vetoed []string
	r.SetAttachFault(func(_ *cluster.Container, name string) error {
		if veto {
			vetoed = append(vetoed, name)
			return injected
		}
		return nil
	})

	veto = true
	if _, err := r.CreateOrAttach(env, "s", 64); !errors.Is(err, injected) {
		t.Fatalf("vetoed create returned %v, want the injected error", err)
	}
	if r.Count() != 0 || len(vetoed) != 1 || vetoed[0] != "s" {
		t.Fatalf("after veto: Count %d, vetoed %v", r.Count(), vetoed)
	}
	veto = false
	seg, err := r.CreateOrAttach(env, "s", 64)
	if err != nil {
		t.Fatal(err)
	}
	veto = true
	if _, err := r.CreateOrAttach(env, "s", 64); !errors.Is(err, injected) {
		t.Fatalf("vetoed re-attach returned %v, want the injected error", err)
	}
	if r.Count() != 1 || seg.data != nil || len(vetoed) != 2 {
		t.Fatalf("after re-attach veto: Count %d, committed %v, vetoed %v", r.Count(), seg.data != nil, vetoed)
	}
	r.SetAttachFault(nil)
	if again, err := r.CreateOrAttach(env, "s", 64); err != nil || again != seg {
		t.Fatalf("attach after removing the hook: %v, same segment %v", err, again == seg)
	}
}

// A registry with a store commits its segments' bytes through it, and
// Release hands back the bytes of each segment that committed them.
func TestSegmentStoreRelease(t *testing.T) {
	c, reg := twoHostSetup(t)
	env, _ := c.Host(0).RunContainer(cluster.RunOpts{ShareHostIPC: true})
	backing := make([]byte, 64)
	reg.SetStore(func(n int) []byte { return backing[:n] })
	used, err := reg.CreateOrAttach(env, "used", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.CreateOrAttach(env, "idle", 8); err != nil {
		t.Fatal(err)
	}
	if b := used.Bytes(); len(b) != 16 || &b[0] != &backing[0] {
		t.Fatalf("Bytes: %d bytes from the store %v, want 16 from it", len(b), &b[0] == &backing[0])
	}
	var given [][]byte
	reg.Release(func(b []byte) { given = append(given, b) })
	if len(given) != 1 || &given[0][0] != &backing[0] {
		t.Fatalf("Release gave %d arrays, want the one committed segment's", len(given))
	}
	if used.Bytes() != nil {
		t.Error("a released segment still has bytes")
	}
}
