//go:build race

package mpi

// raceEnabled reports that the race detector is compiled in; the largest
// worlds are skipped then.
const raceEnabled = true
