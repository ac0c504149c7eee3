//go:build !race

package apps

// raceEnabled reports a -race build: the race runtime randomly drops
// sync.Pool entries, so allocation counts carry a little noise.
const raceEnabled = false
