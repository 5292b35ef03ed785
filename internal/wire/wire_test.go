package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"testing"

	"tdp/internal/ingest"
)

var testClasses = []string{"web", "ftp", "video"}

func mustTable(t testing.TB) *ClassTable {
	t.Helper()
	tab, err := NewClassTable(testClasses)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func sampleBatch(n int) []ingest.Report {
	reps := make([]ingest.Report, n)
	for i := range reps {
		reps[i] = ingest.Report{
			User:     "user" + string(rune('A'+i%7)),
			Class:    testClasses[i%len(testClasses)],
			VolumeMB: float64(i%13) + 0.5*float64(i%2),
		}
	}
	return reps
}

// sameReports compares batches with bit-exact volume equality (NaN
// payloads must survive the codec unchanged).
func sameReports(a, b []ingest.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User || a[i].Class != b[i].Class ||
			math.Float64bits(a[i].VolumeMB) != math.Float64bits(b[i].VolumeMB) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	dec := newRefDecoder(tab)
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		batch := sampleBatch(n)
		frame, err := enc.Encode(batch)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		got, consumed, err := dec.Decode(frame, nil)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if consumed != len(frame) {
			t.Fatalf("n=%d: consumed %d of %d", n, consumed, len(frame))
		}
		if !sameReports(batch, got) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestEncodeFramesPinned pins the encoder's output bytes: the
// round-trip batches must frame exactly as they did before the encoder
// kept its per-report indexes between its two passes. The frame length
// and SHA-256 of each were recorded from the earlier encoder.
func TestEncodeFramesPinned(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	check := func(name string, batch []ingest.Report, wantLen int, wantSum string) {
		t.Helper()
		frame, err := enc.Encode(batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(frame)); len(frame) != wantLen || sum != wantSum {
			t.Fatalf("%s: frame of %d bytes, sha256 %s; want %d bytes, %s", name, len(frame), sum, wantLen, wantSum)
		}
	}
	for _, c := range []struct {
		n, len int
		sum    string
	}{
		{0, 22, "7258959457e53f0532b865b4c8d2d044b299f7c053147f80346fe6bba7859207"},
		{1, 31, "b3d265709d7d98aeca2934c0866232352cbded36bee38ccc15d6fdd94ab8948a"},
		{2, 42, "658f16fe7858af49c01507591707c4036f83c3cc9a213d663e90071c224062d6"},
		{7, 91, "fe2b968b0f9d115b71c93576e4ccf6a9c653149223d97511cf64d941b14f91a5"},
		{64, 321, "e5d1a65661e5310345499e8a8bb33dbef9723fab2b3b8f65c23260486312fb85"},
		{1000, 4105, "785967b1a3d351bf45959638848b728856e464b8face174fac65a858aebabbef"},
	} {
		check(fmt.Sprintf("n=%d", c.n), sampleBatch(c.n), c.len, c.sum)
	}
	check("odd volumes", oddVolumeBatch(), 130, "a0068d4ce8f4b85852b02fcf2f3039e37db969b6a45da15f1637f948c3f59ae2")
}

// oddVolumeBatch carries every awkward float64 a volume can hold.
func oddVolumeBatch() []ingest.Report {
	vols := []float64{0, 1, -1, 0.1, 1e300, 1e-300, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000123), // NaN with payload
		math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0}
	batch := make([]ingest.Report, len(vols))
	for i, v := range vols {
		batch[i] = ingest.Report{User: "u", Class: "web", VolumeMB: v}
	}
	return batch
}

func TestRoundTripOddVolumes(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	dec := newRefDecoder(tab)
	batch := oddVolumeBatch()
	frame, err := enc.Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := dec.Decode(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameReports(batch, got) {
		t.Fatal("odd volumes did not survive bit-exactly")
	}
}

// TestCrossVersion pins the one-version contract: a current frame
// round-trips through both decoders, and the same frame re-stamped with
// any other version byte (CRC recomputed, so only the version is wrong)
// is rejected by both with ErrVersion.
func TestCrossVersion(t *testing.T) {
	tab := mustTable(t)
	batch := sampleBatch(50)
	frame, err := NewEncoder(tab).Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	dec := newRefDecoder(tab)
	got, consumed, err := dec.Decode(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(frame) || !sameReports(batch, got) {
		t.Fatal("round trip mismatch")
	}
	users, _, recs, consumed, err := dec.DecodeRecords(frame)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(frame) || len(recs) != len(batch) {
		t.Fatalf("DecodeRecords: %d records in %d bytes, want %d in %d", len(recs), consumed, len(batch), len(frame))
	}
	for i, r := range recs {
		if w := batch[i]; string(users[r.User]) != w.User || tab.Name(int(r.Class)) != w.Class ||
			math.Float64bits(r.VolumeMB) != math.Float64bits(w.VolumeMB) {
			t.Fatalf("record %d: DecodeRecords {%q %q %v}, batch {%q %q %v}", i, users[r.User], tab.Name(int(r.Class)), r.VolumeMB, w.User, w.Class, w.VolumeMB)
		}
	}
	for _, v := range []byte{0, 2, 255} {
		mut := append([]byte(nil), frame...)
		mut[2] = v
		crcAt := len(mut) - trailerLen
		binary.LittleEndian.PutUint32(mut[crcAt:], crc32.ChecksumIEEE(mut[:crcAt]))
		if _, _, err := newRefDecoder(tab).Decode(mut, nil); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: Decode = %v, want ErrVersion", v, err)
		}
		if _, _, _, _, err := NewDecoder(tab).DecodeRecords(mut); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: DecodeRecords = %v, want ErrVersion", v, err)
		}
	}
}

func TestMultiFrameDecode(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	var body []byte
	var all []ingest.Report
	for _, n := range []int{3, 17, 5} {
		b := sampleBatch(n)
		all = append(all, b...)
		var err error
		body, err = enc.AppendFrame(body, b)
		if err != nil {
			t.Fatal(err)
		}
	}
	dec := newRefDecoder(tab)
	var got []ingest.Report
	for len(body) > 0 {
		var consumed int
		var err error
		got, consumed, err = dec.Decode(body, got)
		if err != nil {
			t.Fatal(err)
		}
		body = body[consumed:]
	}
	if !sameReports(all, got) {
		t.Fatal("multi-frame decode mismatch")
	}
}

func TestTruncatedFrames(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	frame, err := enc.Encode(sampleBatch(20))
	if err != nil {
		t.Fatal(err)
	}
	dec := newRefDecoder(tab)
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := dec.Decode(frame[:cut], nil); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(frame))
		}
		if _, _, _, _, err := dec.DecodeRecords(frame[:cut]); err == nil {
			t.Fatalf("DecodeRecords: truncation at %d of %d accepted", cut, len(frame))
		}
	}
}

func TestCorruptFrames(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	frame, err := enc.Encode(sampleBatch(20))
	if err != nil {
		t.Fatal(err)
	}
	dec := newRefDecoder(tab)
	// Every single-byte flip must be rejected (the CRC covers header and
	// payload; trailer flips break the CRC comparison itself).
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, _, err := dec.Decode(mut, nil); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		if _, _, _, _, err := dec.DecodeRecords(mut); err == nil {
			t.Fatalf("DecodeRecords: bit flip at byte %d accepted", i)
		}
	}
}

func TestLengthPrefixGuards(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	frame, err := enc.Encode(sampleBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	// A hostile length prefix must trip the size limit, not an allocation.
	mut := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(mut[4:], 1<<30)
	dec := newRefDecoder(tab)
	if _, _, err := dec.Decode(mut, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("giant length prefix: %v, want ErrTooLarge", err)
	}
	if _, _, _, _, err := dec.DecodeRecords(mut); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("DecodeRecords, giant length prefix: %v, want ErrTooLarge", err)
	}
	dec.maxFrame = 8
	if _, _, err := dec.Decode(frame, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("limit 8: %v, want ErrTooLarge", err)
	}
	if _, _, _, _, err := dec.DecodeRecords(frame); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("DecodeRecords, limit 8: %v, want ErrTooLarge", err)
	}
}

func TestClassTableMismatch(t *testing.T) {
	tab := mustTable(t)
	other, err := NewClassTable([]string{"web", "ftp", "voip"})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := NewEncoder(tab).Encode(sampleBatch(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := newRefDecoder(other).Decode(frame, nil); !errors.Is(err, ErrClassTable) {
		t.Fatalf("mismatched table: %v, want ErrClassTable", err)
	}
	// The separator in the table hash must distinguish ["ab","c"] from
	// ["a","bc"].
	t1, _ := NewClassTable([]string{"ab", "c"})
	t2, _ := NewClassTable([]string{"a", "bc"})
	if t1.Hash() == t2.Hash() {
		t.Fatal("class table hash ignores name boundaries")
	}
}

func TestEncoderRejectsUnknownClass(t *testing.T) {
	tab := mustTable(t)
	_, err := NewEncoder(tab).Encode([]ingest.Report{{User: "u", Class: "voip", VolumeMB: 1}})
	if !errors.Is(err, ErrBadBatch) {
		t.Fatalf("unknown class: %v, want ErrBadBatch", err)
	}
}

func TestDecodeSteadyStateAllocs(t *testing.T) {
	tab := mustTable(t)
	enc := NewEncoder(tab)
	batch := sampleBatch(256)
	frame, err := enc.Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	dec := newRefDecoder(tab)
	dst := make([]ingest.Report, 0, len(batch))
	// Warm up: size the tables.
	if _, _, err := dec.Decode(frame, dst); err != nil {
		t.Fatal(err)
	}
	// The reference Decode copies the frame's user table out as one
	// string, whatever the number of users and records.
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := dec.Decode(frame, dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("steady-state decode allocates %.1f times per frame, want 1", allocs)
	}
	encAllocs := testing.AllocsPerRun(100, func() {
		if _, err := enc.Encode(batch); err != nil {
			t.Fatal(err)
		}
	})
	if encAllocs != 0 {
		t.Fatalf("steady-state encode allocates %.1f times per frame, want 0", encAllocs)
	}
}

// TestEncoderUserTableCollisions: users that start their probe at the
// same slot of the encoder's flat user table, and two users whose
// seeded hashes are equal, found by brute force against this encoder's
// seed, still get one user-table entry each, and the frame decodes to
// the batch.
func TestEncoderUserTableCollisions(t *testing.T) {
	enc := NewEncoder(mustTable(t))
	key := func(u string) uint32 {
		h := maphash.String(enc.seed, u)
		return uint32(h ^ h>>32)
	}
	// A 4-report frame keeps the smallest table; find four users whose
	// probes start at one of its slots.
	enc.startFrame(4)
	mask := uint32(len(enc.slots) - 1)
	bySlot := make(map[uint32][]string)
	var sameSlot []string
	for i := 0; sameSlot == nil; i++ {
		u := fmt.Sprintf("s%d", i)
		s := key(u) & mask
		if bySlot[s] = append(bySlot[s], u); len(bySlot[s]) == 4 {
			sameSlot = bySlot[s]
		}
	}
	// Two users with equal 32-bit keys: a birthday search over a few
	// hundred thousand names finds a pair.
	byKey := make(map[uint32]string)
	var sameKey []string
	for i := 0; sameKey == nil; i++ {
		u := fmt.Sprintf("k%d", i)
		if v, ok := byKey[key(u)]; ok {
			sameKey = []string{v, u}
		}
		byKey[key(u)] = u
	}
	for _, users := range [][]string{sameSlot, sameKey, append(sameSlot, sameKey...)} {
		var batch []ingest.Report
		for k := 0; k < 3; k++ {
			for i, u := range users {
				batch = append(batch, ingest.Report{User: u, Class: testClasses[(i+k)%3], VolumeMB: float64(1 + i + k)})
			}
		}
		frame, err := enc.Encode(batch)
		if err != nil {
			t.Fatal(err)
		}
		dec := newRefDecoder(mustTable(t))
		table, _, _, _, err := dec.DecodeRecords(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(table) != len(users) {
			t.Fatalf("users %q: frame user table has %d entries", users, len(table))
		}
		for i, u := range users {
			if string(table[i]) != u {
				t.Fatalf("users %q: table entry %d is %q", users, i, table[i])
			}
		}
		got, _, err := dec.Decode(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameReports(batch, got) {
			t.Fatalf("users %q: frame decodes to another batch", users)
		}
	}
}
