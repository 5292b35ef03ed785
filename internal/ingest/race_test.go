//go:build race

package ingest

// raceEnabled mirrors the -race flag for tests whose property (exact
// allocation counts) the race runtime's own bookkeeping invalidates.
const raceEnabled = true
