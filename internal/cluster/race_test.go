//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it because its instrumentation allocates
// on its own.
const raceEnabled = true
