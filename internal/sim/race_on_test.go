//go:build race

package sim

// raceEnabled reports that the race detector is compiled in; the largest
// worlds are skipped then.
const raceEnabled = true
