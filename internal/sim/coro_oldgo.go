//go:build !go1.23

package sim

// Goroutine-backed processes are iter.Pull coroutines (coro.go).
var _ = cmpi_internal_sim_requires_a_Go_1_23_or_later_toolchain
