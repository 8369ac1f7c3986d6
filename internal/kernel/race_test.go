//go:build race

package kernel_test

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of what it is given and allocation counts mean nothing.
const raceEnabled = true
