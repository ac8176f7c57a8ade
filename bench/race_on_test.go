//go:build race

package main

// raceEnabled reports a race-detector build, in which the generator's
// code runs several times slower than the uninstrumented daemon.
const raceEnabled = true
