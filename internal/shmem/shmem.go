// Package shmem models POSIX/SysV shared memory: named byte segments that
// live inside an IPC namespace. Processes can only attach segments created
// in their own IPC namespace — which is exactly the kernel behaviour that
// (a) breaks the default SHM channel across isolated containers, and
// (b) enables the paper's /dev/shm/locality container list once containers
// share the host's IPC namespace.
package shmem

import (
	"fmt"
	"sync"

	"cmpi/internal/cluster"
)

// Segment is one shared-memory object: all simulated ranks attached to it
// read and write the same bytes.
type Segment struct {
	// Name is the segment's key within its namespace (e.g. "locality").
	Name string
	// NS is the owning IPC namespace.
	NS *cluster.Namespace

	size  int
	store func(n int) []byte
	once  sync.Once
	data  []byte
}

// Size is the segment's length in bytes, fixed at creation.
func (s *Segment) Size() int { return s.size }

// Bytes is the segment contents, zero-filled. The backing store is committed
// on first use, like the pages of a real mapping: a segment whose attachers
// keep their traffic elsewhere (the SHM rings hold packets in their own
// queues) costs only its table entry. Safe to call concurrently; every
// caller sees the same bytes.
func (s *Segment) Bytes() []byte {
	s.once.Do(func() {
		if s.store != nil {
			s.data = s.store(s.size)
		} else {
			s.data = make([]byte, s.size)
		}
	})
	return s.data
}

type segKey struct {
	ns   *cluster.Namespace
	name string
}

// AttachFaultHook lets a fault injector veto segment attaches. It receives
// the attaching environment and the segment name and returns a non-nil error
// to fail the attach.
type AttachFaultHook func(env *cluster.Container, name string) error

// Registry is the kernel-side table of shared segments, one per simulation.
// It is not locked: one goroutine dispatches a world, and each world has a
// registry of its own.
type Registry struct {
	segs        map[segKey]*Segment
	attachFault AttachFaultHook
	store       func(n int) []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{segs: make(map[segKey]*Segment)}
}

// SetAttachFault installs (or, with nil, removes) a fault hook consulted by
// every CreateOrAttach before it touches the segment table.
func (r *Registry) SetAttachFault(h AttachFaultHook) { r.attachFault = h }

// SetStore makes the segments created from now on commit their bytes through
// store, which must return n zero bytes, rather than the allocator: for a
// caller that hands the bytes of a finished simulation's segments (Release)
// to the next simulation's.
func (r *Registry) SetStore(store func(n int) []byte) { r.store = store }

// Release hands give the bytes of every segment in the table that committed
// them, for a simulation that has ended; the segments' Bytes are nil from
// then on.
func (r *Registry) Release(give func([]byte)) {
	for _, seg := range r.segs {
		if seg.data != nil {
			give(seg.data)
			seg.data = nil
		}
	}
}

// ErrWrongNamespaceKind is returned when attaching via a non-IPC namespace.
var ErrWrongNamespaceKind = fmt.Errorf("shmem: namespace is not an IPC namespace")

// CreateOrAttach opens the named segment in env's IPC namespace, creating
// it with the given size on first open. Later opens must request a size no
// larger than the existing segment. Two environments observe the same
// segment if and only if they share an IPC namespace.
func (r *Registry) CreateOrAttach(env *cluster.Container, name string, size int) (*Segment, error) {
	if size <= 0 {
		return nil, fmt.Errorf("shmem: segment %q: size %d", name, size)
	}
	if err := r.CheckAttach(env, name); err != nil {
		return nil, err
	}
	ns := env.Namespace(cluster.IPC)
	key := segKey{ns: ns, name: name}
	if seg, ok := r.segs[key]; ok {
		if size > seg.size {
			return nil, fmt.Errorf("shmem: segment %q exists with size %d, attach wants %d",
				name, seg.size, size)
		}
		return seg, nil
	}
	seg := &Segment{Name: name, NS: ns, size: size, store: r.store}
	r.segs[key] = seg
	return seg, nil
}

// CheckAttach runs what CreateOrAttach checks before it touches the segment
// table: the fault hook, then env's IPC namespace. A segment whose users hand
// its handle to one another and never look it up by name (the SHM channel's
// per-pair rings) needs no table entry: CheckAttach is its whole attach.
func (r *Registry) CheckAttach(env *cluster.Container, name string) error {
	if r.attachFault != nil {
		if err := r.attachFault(env, name); err != nil {
			return err
		}
	}
	if env.Namespace(cluster.IPC).Kind != cluster.IPC {
		return ErrWrongNamespaceKind
	}
	return nil
}

// Attach opens an existing segment and fails if it does not exist in env's
// IPC namespace (there is no cross-namespace discovery, as in the kernel).
func (r *Registry) Attach(env *cluster.Container, name string) (*Segment, error) {
	ns := env.Namespace(cluster.IPC)
	seg, ok := r.segs[segKey{ns: ns, name: name}]
	if !ok {
		return nil, fmt.Errorf("shmem: no segment %q in IPC namespace %s/%d of %s",
			name, ns.Host.Name, ns.ID, env)
	}
	return seg, nil
}

// Unlink removes the named segment from env's namespace. Existing attaches
// keep their reference (like shm_unlink semantics).
func (r *Registry) Unlink(env *cluster.Container, name string) error {
	ns := env.Namespace(cluster.IPC)
	key := segKey{ns: ns, name: name}
	if _, ok := r.segs[key]; !ok {
		return fmt.Errorf("shmem: unlink %q: no such segment", name)
	}
	delete(r.segs, key)
	return nil
}

// Count reports how many live segments the registry holds (for tests and
// leak checks).
func (r *Registry) Count() int {
	return len(r.segs)
}
