package core

import "fmt"

// Path is the concrete protocol a message takes between two ranks.
type Path int

const (
	// PathSHMEager: eager protocol through the shared-memory ring
	// (double copy, pipelined).
	PathSHMEager Path = iota
	// PathCMARndv: rendezvous protocol; payload moves with one
	// process_vm_readv call (single copy).
	PathCMARndv
	// PathSHMRndv: rendezvous negotiation but payload staged through the
	// shared ring (used when CMA is unavailable or disabled).
	PathSHMRndv
	// PathHCAEager: eager protocol over InfiniBand send/recv with bounce
	// buffers on both sides.
	PathHCAEager
	// PathHCARndv: rendezvous over InfiniBand — RTS/CTS handshake, then a
	// zero-copy RDMA write.
	PathHCARndv
)

// String names the path for traces and diagnostics.
func (p Path) String() string {
	switch p {
	case PathSHMEager:
		return "shm-eager"
	case PathCMARndv:
		return "cma-rndv"
	case PathSHMRndv:
		return "shm-rndv"
	case PathHCAEager:
		return "hca-eager"
	case PathHCARndv:
		return "hca-rndv"
	}
	return fmt.Sprintf("path(%d)", int(p))
}

// Channel is the coarse channel class used in the paper's Table I counts.
type Channel int

const (
	// ChannelSHM is the user-space shared-memory channel.
	ChannelSHM Channel = iota
	// ChannelCMA is the cross-memory-attach channel.
	ChannelCMA
	// ChannelHCA is the InfiniBand network channel.
	ChannelHCA
)

// String names the channel as in the paper's Table I.
func (c Channel) String() string {
	switch c {
	case ChannelSHM:
		return "SHM"
	case ChannelCMA:
		return "CMA"
	case ChannelHCA:
		return "HCA"
	}
	return fmt.Sprintf("channel(%d)", int(c))
}

// Channel classifies a path for accounting.
func (p Path) Channel() Channel {
	switch p {
	case PathSHMEager, PathSHMRndv:
		return ChannelSHM
	case PathCMARndv:
		return ChannelCMA
	default:
		return ChannelHCA
	}
}

// PeerCapabilities is the ground truth about a rank pair, derived from the
// cluster model at init time (namespaces never change mid-job).
type PeerCapabilities struct {
	// SameHost: physically co-resident (what the detector tries to learn).
	SameHost bool
	// SameHostname: gethostname() agrees — the *only* signal stock
	// MVAPICH2 has. Co-resident containers have different hostnames.
	SameHostname bool
	// SharedIPC: a shared-memory segment can be attached by both
	// (same host and same IPC namespace) — prerequisite for the SHM
	// channel and for the detector itself.
	SharedIPC bool
	// SharedPID: process_vm_readv may target the peer (same host and same
	// PID namespace) — prerequisite for the CMA channel.
	SharedPID bool
	// DetectedLocal: the Container Locality Detector saw the peer's byte
	// in this host's container list (only meaningful in ModeLocalityAware).
	DetectedLocal bool
}

// TreatLocal decides whether a pair is treated as intra-host by the
// library. This is the decision the paper changes:
//
//   - ModeDefault trusts hostnames, so co-resident containers look remote;
//   - ModeLocalityAware trusts the container list, recovering the truth. The
//     list lives in one IPC namespace, so a detected peer shares it, and
//     fully isolated containers still (correctly) look remote. Hostnames
//     still count: a rank whose detector could not attach falls back to
//     them.
func TreatLocal(m Mode, cap PeerCapabilities) bool {
	switch m {
	case ModeLocalityAware:
		return cap.DetectedLocal || cap.SameHostname
	default:
		return cap.SameHostname
	}
}

// SelectPath picks the protocol for a message of size bytes between a pair
// with the given capabilities under mode m. It implements the channel
// rescheduling of Fig. 5: ADI3 -> Container Locality Detector -> channel.
func SelectPath(m Mode, tun Tunables, cap PeerCapabilities, size int) Path {
	if TreatLocal(m, cap) && cap.SharedIPC {
		if size < tun.SMPEagerSize {
			return PathSHMEager
		}
		if tun.UseCMA && cap.SharedPID {
			return PathCMARndv
		}
		return PathSHMRndv
	}
	if size <= tun.IBAEagerThreshold {
		return PathHCAEager
	}
	return PathHCARndv
}
