//go:build race

package tube

// raceEnabled mirrors the -race flag for tests whose property (exact
// allocation counts) the race runtime's own bookkeeping invalidates.
const raceEnabled = true
