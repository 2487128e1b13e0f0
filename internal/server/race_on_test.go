//go:build race

package server

// raceEnabled lets allocation pins skip under the race detector, whose
// instrumented sync.Pool deliberately drops items to widen coverage.
const raceEnabled = true
