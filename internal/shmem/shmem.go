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

	size int
	once sync.Once
	data []byte
}

// Size is the segment's length in bytes, fixed at creation.
func (s *Segment) Size() int { return s.size }

// Bytes is the segment contents, zero-filled. The backing store is committed
// on first use, like the pages of a real mapping: a segment whose attachers
// keep their traffic elsewhere (the SHM rings hold packets in their own
// queues) costs only its table entry. Safe to call from concurrent epoch
// groups; every caller sees the same bytes.
func (s *Segment) Bytes() []byte {
	s.once.Do(func() { s.data = make([]byte, s.size) })
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

// AttachTraceHook observes vetoed attaches (for the trace subsystem). It is
// called after the fault hook rejects, before the error returns.
type AttachTraceHook func(env *cluster.Container, name string)

// Registry is the kernel-side table of shared segments, one per simulation.
// The table itself is mutex-protected: under the engine's parallel epoch
// dispatch, independent rank pairs may attach distinct segments concurrently
// (segment contents are still only touched by ranks whose footprints cover
// them, so the bytes need no lock).
type Registry struct {
	mu          sync.Mutex
	segs        map[segKey]*Segment
	attachFault AttachFaultHook
	attachTrace AttachTraceHook
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{segs: make(map[segKey]*Segment)}
}

// SetAttachFault installs (or, with nil, removes) a fault hook consulted by
// every CreateOrAttach before it touches the segment table.
func (r *Registry) SetAttachFault(h AttachFaultHook) { r.attachFault = h }

// SetAttachTrace installs (or, with nil, removes) the vetoed-attach observer.
func (r *Registry) SetAttachTrace(h AttachTraceHook) { r.attachTrace = h }

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
	if r.attachFault != nil {
		if err := r.attachFault(env, name); err != nil {
			if r.attachTrace != nil {
				r.attachTrace(env, name)
			}
			return nil, err
		}
	}
	ns := env.Namespace(cluster.IPC)
	if ns.Kind != cluster.IPC {
		return nil, ErrWrongNamespaceKind
	}
	key := segKey{ns: ns, name: name}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seg, ok := r.segs[key]; ok {
		if size > seg.size {
			return nil, fmt.Errorf("shmem: segment %q exists with size %d, attach wants %d",
				name, seg.size, size)
		}
		return seg, nil
	}
	seg := &Segment{Name: name, NS: ns, size: size}
	r.segs[key] = seg
	return seg, nil
}

// Attach opens an existing segment and fails if it does not exist in env's
// IPC namespace (there is no cross-namespace discovery, as in the kernel).
func (r *Registry) Attach(env *cluster.Container, name string) (*Segment, error) {
	ns := env.Namespace(cluster.IPC)
	r.mu.Lock()
	seg, ok := r.segs[segKey{ns: ns, name: name}]
	r.mu.Unlock()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.segs[key]; !ok {
		return fmt.Errorf("shmem: unlink %q: no such segment", name)
	}
	delete(r.segs, key)
	return nil
}

// Count reports how many live segments the registry holds (for tests and
// leak checks).
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.segs)
}
