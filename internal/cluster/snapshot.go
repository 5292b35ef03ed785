package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"tdp/internal/rrd"
)

// ErrBadSnapshot is returned for malformed or corrupt price snapshots.
var ErrBadSnapshot = errors.New("cluster: bad snapshot")

// snapshotVersion is the serialization format version.
const snapshotVersion = 1

// PriceSnapshot is the replicated price plane: everything a follower
// needs to serve GET /price for the period in progress. The leader (the
// node running the optimizer control loop) produces one per period
// close; followers pull it over GET /cluster/snapshot and serve prices
// from their copy, so the whole cluster publishes one schedule while
// only one node solves for it.
type PriceSnapshot struct {
	Format  int       `json:"format"` // serialization version (snapshotVersion)
	Period  int       `json:"period"` // period index in progress at the leader
	Rewards []float64 `json:"rewards"`
	// RingVersion is the leader's ring view when the snapshot was cut —
	// a follower on a newer ring knows the schedule predates the move.
	RingVersion uint64 `json:"ringVersion,omitempty"`
	// TakenUnixNano is when the leader published the record the snapshot
	// was cut from. It orders snapshots, and a follower sends back the
	// newest one it holds as the `after` of its next long-poll pull.
	TakenUnixNano int64 `json:"takenUnixNano"`
}

// NewPriceSnapshot cuts the snapshot of one published price record: the
// period in progress, its reward schedule, the leader's ring view, and
// the time the record was published.
func NewPriceSnapshot(period int, rewards []float64, ringVersion uint64, takenUnixNano int64) PriceSnapshot {
	return PriceSnapshot{
		Format:        snapshotVersion,
		Period:        period,
		Rewards:       append([]float64(nil), rewards...),
		RingVersion:   ringVersion,
		TakenUnixNano: takenUnixNano,
	}
}

// Validate rejects snapshots that could not have come from a healthy
// leader.
func (s *PriceSnapshot) Validate() error {
	if s.Format != snapshotVersion {
		return fmt.Errorf("%w: format %d, want %d", ErrBadSnapshot, s.Format, snapshotVersion)
	}
	if s.Period < 0 {
		return fmt.Errorf("%w: negative period %d", ErrBadSnapshot, s.Period)
	}
	if len(s.Rewards) == 0 {
		return fmt.Errorf("%w: empty reward schedule", ErrBadSnapshot)
	}
	for i, r := range s.Rewards {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("%w: reward %d is %v", ErrBadSnapshot, i, r)
		}
	}
	return nil
}

// Encode writes the snapshot.
func (s *PriceSnapshot) Encode(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(s)
}

// DecodeSnapshot reads and validates one snapshot.
func DecodeSnapshot(r io.Reader) (PriceSnapshot, error) {
	var s PriceSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return PriceSnapshot{}, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := s.Validate(); err != nil {
		return PriceSnapshot{}, err
	}
	return s, nil
}

// SaveSnapshotFile persists a snapshot crash-safely through the same
// atomic write-temp+fsync+rename machinery the RRD histories use
// (rrd.AtomicWriteFile): a node restarting mid-replication finds either
// the previous complete snapshot or the new complete one, never a torn
// file.
func SaveSnapshotFile(path string, s PriceSnapshot) error {
	return rrd.AtomicWriteFile(path, s.Encode)
}

// LoadSnapshotFile reads back a snapshot written by SaveSnapshotFile,
// rejecting truncated or corrupt files with ErrBadSnapshot.
func LoadSnapshotFile(path string) (PriceSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return PriceSnapshot{}, fmt.Errorf("cluster: load %s: %w", path, err)
	}
	defer f.Close()
	s, err := DecodeSnapshot(f)
	if err != nil {
		return PriceSnapshot{}, fmt.Errorf("cluster: load %s: %w", path, err)
	}
	return s, nil
}
