package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"tdp/internal/ingest"
)

// FuzzDecode feeds arbitrary bytes to both decoders: they must reject or
// accept without panicking, and agree. DecodeRecords is the production
// parser of untrusted POST /usage/wire bodies; Decode is its reference
// twin, so the two must reach the same verdict, consume the same bytes
// and yield the same records, volumes compared bit for bit. Anything
// accepted must re-encode to a batch that decodes identically (decode
// is a retraction of encode).
//
// A mutated input almost never carries a valid CRC, so each input is
// also checked with its length prefix and CRC rewritten to frame the
// whole input: that copy reaches the payload parsers.
func FuzzDecode(f *testing.F) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder(tab)
	seed, err := enc.Encode(sampleBatch(9))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{'T', 'W', 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoders(t, tab, data)
		if len(data) >= headerLen+trailerLen {
			framed := append([]byte(nil), data...)
			crcAt := len(framed) - trailerLen
			binary.LittleEndian.PutUint32(framed[4:], uint32(crcAt-headerLen))
			binary.LittleEndian.PutUint32(framed[crcAt:], crc32.ChecksumIEEE(framed[:crcAt]))
			checkDecoders(t, tab, framed)
		}
	})
}

// checkDecoders runs one input through both decoders and asserts the
// FuzzDecode properties.
func checkDecoders(t *testing.T, tab *ClassTable, data []byte) {
	t.Helper()
	got, consumed, err := newRefDecoder(tab).Decode(data, nil)
	users, _, recs, zcConsumed, zcErr := NewDecoder(tab).DecodeRecords(data)
	if (err == nil) != (zcErr == nil) {
		t.Fatalf("Decode error %v, DecodeRecords error %v", err, zcErr)
	}
	if err != nil {
		return
	}
	if zcConsumed != consumed {
		t.Fatalf("DecodeRecords consumed %d bytes, Decode %d", zcConsumed, consumed)
	}
	if len(recs) != len(got) {
		t.Fatalf("DecodeRecords yielded %d records, Decode %d", len(recs), len(got))
	}
	for i, r := range recs {
		w := got[i]
		if string(users[r.User]) != w.User || tab.Name(int(r.Class)) != w.Class ||
			math.Float64bits(r.VolumeMB) != math.Float64bits(w.VolumeMB) {
			t.Fatalf("record %d: DecodeRecords {%q %q %#x}, Decode {%q %q %#x}", i,
				users[r.User], tab.Name(int(r.Class)), math.Float64bits(r.VolumeMB),
				w.User, w.Class, math.Float64bits(w.VolumeMB))
		}
	}
	if consumed <= 0 || consumed > len(data) {
		t.Fatalf("accepted frame consumed %d of %d bytes", consumed, len(data))
	}
	frame, err := NewEncoder(tab).Encode(got)
	if err != nil {
		t.Fatalf("re-encode of accepted batch failed: %v", err)
	}
	again, _, err := newRefDecoder(tab).Decode(frame, nil)
	if err != nil {
		t.Fatalf("re-decode failed: %v", err)
	}
	if !sameReports(got, again) {
		t.Fatal("decode∘encode not idempotent on accepted input")
	}
}

// FuzzRoundTrip builds a batch from fuzzed fields and asserts
// decode(encode(x)) == x bit-for-bit.
func FuzzRoundTrip(f *testing.F) {
	tab, err := NewClassTable(testClasses)
	if err != nil {
		f.Fatal(err)
	}
	f.Add("alice", "bob", uint8(3), uint64(0x3ff0000000000000), uint64(42))
	f.Add("", "u", uint8(0), uint64(0x7ff8000000000123), uint64(0))
	f.Fuzz(func(t *testing.T, userA, userB string, n uint8, volBitsA, volBitsB uint64) {
		batch := make([]ingest.Report, int(n)%33)
		for i := range batch {
			u, vb := userA, volBitsA
			if i%2 == 1 {
				u, vb = userB, volBitsB
			}
			batch[i] = ingest.Report{
				User:     u,
				Class:    testClasses[(i+int(n))%len(testClasses)],
				VolumeMB: math.Float64frombits(vb + uint64(i)),
			}
		}
		frame, err := NewEncoder(tab).Encode(batch)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, consumed, err := newRefDecoder(tab).Decode(frame, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if consumed != len(frame) {
			t.Fatalf("consumed %d of %d", consumed, len(frame))
		}
		if !sameReports(batch, got) {
			t.Fatal("round trip mismatch")
		}
	})
}
