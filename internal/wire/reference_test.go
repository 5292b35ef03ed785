package wire

import (
	"encoding/binary"
	"fmt"

	"tdp/internal/ingest"
)

// refDecoder is the reference twin of Decoder.DecodeRecords: it walks
// the v1 payload on its own and materializes each record as an
// ingest.Report, so the tests can check the production decoder record
// by record against an independent reading of the format. It shares
// only the envelope check (checkFrame) and its size limit.
type refDecoder struct {
	*Decoder
	names []string // the frame's user names, reused across frames
}

func newRefDecoder(tab *ClassTable) *refDecoder { return &refDecoder{Decoder: NewDecoder(tab)} }

// Decode consumes one frame from the front of buf, appends its reports
// to dst and returns the extended slice plus the number of bytes
// consumed. Callers loop Decode over a body holding several frames;
// "no more frames" is len(buf) == 0 at the caller.
func (d *refDecoder) Decode(buf []byte, dst []ingest.Report) (out []ingest.Report, consumed int, err error) {
	payload, total, err := d.checkFrame(buf)
	if err != nil {
		return dst, 0, err
	}
	out, err = d.decodePayloadV1(payload, dst)
	if err != nil {
		return dst, 0, err
	}
	return out, total, nil
}

func (d *refDecoder) decodePayloadV1(p []byte, dst []ingest.Report) ([]ingest.Report, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("%w: payload too short for class hash", ErrCorrupt)
	}
	if h := binary.LittleEndian.Uint32(p); h != d.tab.hash {
		return dst, fmt.Errorf("%w: frame hash %#x, table hash %#x", ErrClassTable, h, d.tab.hash)
	}
	p = p[4:]
	nc, p, err := uvarint(p)
	if err != nil {
		return dst, err
	}
	if int(nc) != d.tab.Len() {
		return dst, fmt.Errorf("%w: frame has %d classes, table %d", ErrClassTable, nc, d.tab.Len())
	}
	var headerN uint64
	for range d.tab.Len() {
		c, rest, err := uvarint(p)
		if err != nil {
			return dst, err
		}
		headerN += c
		p = rest
	}
	nu, p, err := uvarint(p)
	if err != nil {
		return dst, err
	}
	if nu > uint64(len(p)) { // each user needs ≥1 length byte
		return dst, fmt.Errorf("%w: user table claims %d entries in %d bytes", ErrCorrupt, nu, len(p))
	}
	// The user table is copied out of the frame as one string, and each
	// user's name is a substring of it.
	table := p
	for i := uint64(0); i < nu; i++ {
		l, rest, err := uvarint(p)
		if err != nil {
			return dst, err
		}
		if l > uint64(len(rest)) {
			return dst, fmt.Errorf("%w: user %d length %d overruns payload", ErrCorrupt, i, l)
		}
		p = rest[l:]
	}
	all := string(table[:len(table)-len(p)])
	names := d.names[:0]
	for q := table[:len(all)]; len(q) > 0; {
		l, n := binary.Uvarint(q) // checked by the walk above
		from := len(all) - len(q) + n
		names = append(names, all[from:from+int(l)])
		q = q[n+int(l):]
	}
	d.names = names
	n, p, err := uvarint(p)
	if err != nil {
		return dst, err
	}
	if n != headerN {
		return dst, fmt.Errorf("%w: record count %d, class counts sum %d", ErrCorrupt, n, headerN)
	}
	if n > uint64(len(p)) { // each record is ≥3 bytes
		return dst, fmt.Errorf("%w: %d records claimed in %d bytes", ErrCorrupt, n, len(p))
	}
	for i := uint64(0); i < n; i++ {
		ui, rest, err := uvarint(p)
		if err != nil {
			return dst, err
		}
		if ui >= uint64(len(names)) {
			return dst, fmt.Errorf("%w: record %d user index %d of %d", ErrCorrupt, i, ui, len(names))
		}
		ci, rest, err := uvarint(rest)
		if err != nil {
			return dst, err
		}
		if ci >= uint64(d.tab.Len()) {
			return dst, fmt.Errorf("%w: record %d class index %d of %d", ErrCorrupt, i, ci, d.tab.Len())
		}
		vb, rest, err := uvarint(rest)
		if err != nil {
			return dst, err
		}
		dst = append(dst, ingest.Report{
			User:     names[ui],
			Class:    d.tab.names[ci],
			VolumeMB: unpackVolume(vb),
		})
		p = rest
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return dst, nil
}
