// Package wire is the compact binary batch format for usage reports on
// the cluster ingest path. JSON costs the hot path twice: encoding/json
// allocates per report on both ends, and the text form of a (user,
// class, volume) triple is ~60 bytes where the information content is
// ~10. This codec replaces it with length-prefixed, CRC-guarded frames:
//
//	offset  size  field
//	0       2     magic "TW"
//	2       1     version (1)
//	3       1     flags (reserved, must be 0)
//	4       4     payload length, uint32 LE
//	8       n     payload (below)
//	8+n     4     CRC-32 (IEEE) over bytes [0, 8+n), uint32 LE
//
// Payload:
//
//	classHash uint32 LE        FNV-1a over the class names (table check)
//	C         uvarint          class count, must match the table
//	counts    C × uvarint      reports per class (header summary: lets a
//	                           receiver account a frame per class
//	                           without decoding the records)
//	U         uvarint          user-table size
//	users     U × (uvarint len, bytes)   in order of first appearance
//	N         uvarint          record count (== Σ counts)
//	records   N × (uvarint userIdx, uvarint classIdx, uvarint volBits)
//
// volBits is bits.ReverseBytes64(math.Float64bits(v)): byte-swapping
// moves a float's always-populated exponent bits to the low end and its
// usually-zero low mantissa bytes to the high end, so the uvarint of an
// integral or low-precision volume is 2–4 bytes instead of 8–10. The
// user table amortizes each user string once per frame instead of once
// per record — the dominant saving for per-user batches.
//
// Encoders emit only VersionCurrent and decoders accept only it; any
// other version byte is ErrVersion.
//
// Encode and DecodeRecords are zero-allocation at steady state: the
// Encoder reuses its output buffer, its user-index map and the report
// indexes it resolves once per frame, and DecodeRecords returns the
// frame's users as views into the frame itself, so the one copy of a
// user's name a node keeps is the one in its ingest engine's user
// table. Decode, the reference twin that materializes reports,
// allocates one string per frame for the whole user table.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"tdp/internal/ingest"
)

// Frame format errors. Decode errors always wrap one of these, so the
// serving layer can distinguish garbage (reject the request) from a
// class-table mismatch (configuration skew between nodes).
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrCorrupt    = errors.New("wire: corrupt frame")
	ErrVersion    = errors.New("wire: unsupported frame version")
	ErrClassTable = errors.New("wire: class table mismatch")
	ErrTooLarge   = errors.New("wire: frame exceeds size limit")
	ErrBadBatch   = errors.New("wire: batch not encodable")
)

const (
	magic0 = 'T'
	magic1 = 'W'

	// VersionCurrent is the version byte of the layout above.
	VersionCurrent = 1

	headerLen  = 8
	trailerLen = 4

	// DefaultMaxFrameBytes bounds a single frame's payload; a corrupt
	// length prefix must not make a decoder reserve gigabytes.
	DefaultMaxFrameBytes = 16 << 20
)

// ClassTable is the shared class-name ↔ index agreement between an
// encoder and a decoder. Frames carry an FNV-1a hash of the table so a
// node detects a peer built against a different class list instead of
// silently crediting the wrong class.
type ClassTable struct {
	names []string
	idx   map[string]int
	hash  uint32
}

// NewClassTable builds the agreement from the class names in index
// order (the same slice ingest.NewEngine was given).
func NewClassTable(classes []string) (*ClassTable, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("%w: no classes", ErrBadBatch)
	}
	t := &ClassTable{
		names: append([]string(nil), classes...),
		idx:   make(map[string]int, len(classes)),
	}
	h := uint32(2166136261)
	for i, c := range classes {
		if c == "" {
			return nil, fmt.Errorf("%w: class %d empty", ErrBadBatch, i)
		}
		if _, dup := t.idx[c]; dup {
			return nil, fmt.Errorf("%w: class %q duplicate", ErrBadBatch, c)
		}
		t.idx[c] = i
		for j := 0; j < len(c); j++ {
			h ^= uint32(c[j])
			h *= 16777619
		}
		h ^= 0 // separator byte
		h *= 16777619
	}
	t.hash = h
	return t, nil
}

// Len returns the number of classes.
func (t *ClassTable) Len() int { return len(t.names) }

// Names returns the class names in index order.
func (t *ClassTable) Names() []string { return append([]string(nil), t.names...) }

// Hash returns the table's FNV-1a identity carried in every frame.
func (t *ClassTable) Hash() uint32 { return t.hash }

// Name returns the class name at index i.
func (t *ClassTable) Name(i int) string { return t.names[i] }

// Index resolves a class name.
func (t *ClassTable) Index(name string) (int, bool) {
	i, ok := t.idx[name]
	return i, ok
}

// packVolume maps a float64 volume to its varint-friendly form: the
// byte-reversed bit pattern puts the low (usually zero) mantissa bytes
// in the varint's dropped high positions. Exact for every bit pattern,
// NaN payloads included.
func packVolume(v float64) uint64 { return bits.ReverseBytes64(math.Float64bits(v)) }

func unpackVolume(u uint64) float64 { return math.Float64frombits(bits.ReverseBytes64(u)) }

// Encoder turns report batches into frames. Not safe for concurrent
// use; pool one per sending goroutine (the Router does).
type Encoder struct {
	tab     *ClassTable
	buf     []byte
	userIdx map[string]int
	users   []string
	counts  []uint64
	recs    []encRec // per report: its user and class index, from pass 1
}

// encRec is one report's indexes, resolved once in pass 1.
type encRec struct{ user, class uint32 }

// NewEncoder builds an encoder over the class table.
func NewEncoder(tab *ClassTable) *Encoder {
	return &Encoder{
		tab:     tab,
		userIdx: make(map[string]int),
		counts:  make([]uint64, tab.Len()),
	}
}

// Encode frames one batch, returning the encoder's internal buffer —
// valid only until the next Encode call.
func (e *Encoder) Encode(reports []ingest.Report) ([]byte, error) {
	out, err := e.AppendFrame(e.buf[:0], reports)
	if err != nil {
		return nil, err
	}
	e.buf = out
	return out, nil
}

// AppendFrame appends one frame holding the batch to dst and returns
// the extended slice. Every report's class must be in the table; the
// batch is otherwise taken as-is (engine-level validation — unknown
// users, negative volumes — happens at the receiving node).
func (e *Encoder) AppendFrame(dst []byte, reports []ingest.Report) ([]byte, error) {
	start := len(dst)
	dst = append(dst, magic0, magic1, VersionCurrent, 0, 0, 0, 0, 0)
	dst, err := e.appendPayloadV1(dst, reports)
	if err != nil {
		return nil, err
	}
	payloadLen := len(dst) - start - headerLen
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(payloadLen))
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

func (e *Encoder) appendPayloadV1(dst []byte, reports []ingest.Report) ([]byte, error) {
	// Pass 1: build the user table in first-appearance order and the
	// per-class counts, and keep each report's indexes for pass 2.
	clear(e.userIdx)
	e.users = e.users[:0]
	for i := range e.counts {
		e.counts[i] = 0
	}
	recs := e.recs[:0]
	for i := range reports {
		r := &reports[i]
		ci, ok := e.tab.idx[r.Class]
		if !ok {
			return nil, fmt.Errorf("%w: report %d class %q not in table", ErrBadBatch, i, r.Class)
		}
		e.counts[ci]++
		ui, seen := e.userIdx[r.User]
		if !seen {
			ui = len(e.users)
			e.userIdx[r.User] = ui
			e.users = append(e.users, r.User)
		}
		recs = append(recs, encRec{user: uint32(ui), class: uint32(ci)})
	}
	e.recs = recs
	dst = binary.LittleEndian.AppendUint32(dst, e.tab.hash)
	dst = binary.AppendUvarint(dst, uint64(e.tab.Len()))
	for _, c := range e.counts {
		dst = binary.AppendUvarint(dst, c)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.users)))
	for _, u := range e.users {
		dst = binary.AppendUvarint(dst, uint64(len(u)))
		dst = append(dst, u...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(reports)))
	for i, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(r.user))
		dst = binary.AppendUvarint(dst, uint64(r.class))
		dst = binary.AppendUvarint(dst, packVolume(reports[i].VolumeMB))
	}
	return dst, nil
}

// Decoder turns frames back into report batches. Not safe for
// concurrent use; pool one per connection-serving goroutine (the tube
// server does).
type Decoder struct {
	tab      *ClassTable
	maxFrame int
	userTab  [][]byte
	hashTab  []uint32
	names    []string
	recs     []ingest.WireRecord
	counts   []int64
}

// NewDecoder builds a decoder over the class table.
func NewDecoder(tab *ClassTable) *Decoder {
	return &Decoder{
		tab:      tab,
		maxFrame: DefaultMaxFrameBytes,
		counts:   make([]int64, tab.Len()),
	}
}

// SetMaxFrameBytes bounds the accepted payload length (guards against a
// corrupt or hostile length prefix).
func (d *Decoder) SetMaxFrameBytes(n int) {
	if n > 0 {
		d.maxFrame = n
	}
}

// ClassCounts returns the per-class report counts of the most recently
// decoded frame, ordered as the class table: the header summary,
// verified against the records during decode. The slice is reused
// across Decode calls.
func (d *Decoder) ClassCounts() []int64 { return d.counts }

// Decode consumes one frame from the front of buf, appends its reports
// to dst and returns the extended slice plus the number of bytes
// consumed. Callers loop Decode over a request body holding several
// frames; io.EOF-style "no more frames" is len(buf) == 0 at the caller.
func (d *Decoder) Decode(buf []byte, dst []ingest.Report) (out []ingest.Report, consumed int, err error) {
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

// checkFrame validates one frame's envelope — magic, version, flags,
// length bound, CRC — and returns the payload in place.
func (d *Decoder) checkFrame(buf []byte) (payload []byte, total int, err error) {
	if len(buf) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(buf), headerLen+trailerLen)
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return nil, 0, fmt.Errorf("%w: bad magic %#x %#x", ErrCorrupt, buf[0], buf[1])
	}
	if buf[2] != VersionCurrent {
		return nil, 0, fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	if buf[3] != 0 {
		return nil, 0, fmt.Errorf("%w: nonzero flags %#x", ErrCorrupt, buf[3])
	}
	payloadLen := int(binary.LittleEndian.Uint32(buf[4:]))
	if payloadLen > d.maxFrame {
		return nil, 0, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, payloadLen, d.maxFrame)
	}
	total = headerLen + payloadLen + trailerLen
	if len(buf) < total {
		return nil, 0, fmt.Errorf("%w: frame claims %d bytes, have %d", ErrTruncated, total, len(buf))
	}
	wantCRC := binary.LittleEndian.Uint32(buf[headerLen+payloadLen:])
	if got := crc32.ChecksumIEEE(buf[:headerLen+payloadLen]); got != wantCRC {
		return nil, 0, fmt.Errorf("%w: CRC mismatch (got %#x, frame says %#x)", ErrCorrupt, got, wantCRC)
	}
	return buf[headerLen : headerLen+payloadLen], total, nil
}

// DecodeRecords consumes one frame from the front of buf zero-copy: no
// []ingest.Report is materialized. It returns the frame's user table as
// views into buf, the ingest.UserHash of each entry, and the records in
// frame-index form (ingest.WireRecord.Class indexes the decoder's class
// table, which matches the engine's class order). The user views are
// valid while buf is; the three slices themselves are decoder-owned
// scratch, valid only until the next Decode/DecodeRecords call —
// callers that keep the frame past the next call must copy them.
//
// Feeding the result to Engine.ApplyWire is the server's ingest path;
// it produces the same counters as Decode + RecordBatch (the reference
// twin, pinned by the property tests).
func (d *Decoder) DecodeRecords(buf []byte) (users [][]byte, hashes []uint32, recs []ingest.WireRecord, consumed int, err error) {
	payload, total, err := d.checkFrame(buf)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := d.decodeRecordsV1(payload); err != nil {
		return nil, nil, nil, 0, err
	}
	return d.userTab, d.hashTab, d.recs, total, nil
}

// uvarint reads one varint from p, returning the value and the rest.
func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	return v, p[n:], nil
}

func (d *Decoder) decodePayloadV1(p []byte, dst []ingest.Report) ([]ingest.Report, error) {
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
	for i := range d.counts {
		c, rest, err := uvarint(p)
		if err != nil {
			return dst, err
		}
		d.counts[i] = int64(c)
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

// decodeRecordsV1 fills d.userTab/d.hashTab/d.recs from a v1 payload —
// the same walk as decodePayloadV1, minus the per-record Report
// materialization (class stays an index; volumes unpack in place).
func (d *Decoder) decodeRecordsV1(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("%w: payload too short for class hash", ErrCorrupt)
	}
	if h := binary.LittleEndian.Uint32(p); h != d.tab.hash {
		return fmt.Errorf("%w: frame hash %#x, table hash %#x", ErrClassTable, h, d.tab.hash)
	}
	p = p[4:]
	nc, p, err := uvarint(p)
	if err != nil {
		return err
	}
	if int(nc) != d.tab.Len() {
		return fmt.Errorf("%w: frame has %d classes, table %d", ErrClassTable, nc, d.tab.Len())
	}
	var headerN uint64
	for i := range d.counts {
		c, rest, err := uvarint(p)
		if err != nil {
			return err
		}
		d.counts[i] = int64(c)
		headerN += c
		p = rest
	}
	nu, p, err := uvarint(p)
	if err != nil {
		return err
	}
	if nu > uint64(len(p)) { // each user needs ≥1 length byte
		return fmt.Errorf("%w: user table claims %d entries in %d bytes", ErrCorrupt, nu, len(p))
	}
	d.userTab = d.userTab[:0]
	d.hashTab = d.hashTab[:0]
	for i := uint64(0); i < nu; i++ {
		l, rest, err := uvarint(p)
		if err != nil {
			return err
		}
		if l > uint64(len(rest)) {
			return fmt.Errorf("%w: user %d length %d overruns payload", ErrCorrupt, i, l)
		}
		d.userTab = append(d.userTab, rest[:l:l])
		d.hashTab = append(d.hashTab, ingest.UserHash(rest[:l]))
		p = rest[l:]
	}
	n, p, err := uvarint(p)
	if err != nil {
		return err
	}
	if n != headerN {
		return fmt.Errorf("%w: record count %d, class counts sum %d", ErrCorrupt, n, headerN)
	}
	if n > uint64(len(p)) { // each record is ≥3 bytes
		return fmt.Errorf("%w: %d records claimed in %d bytes", ErrCorrupt, n, len(p))
	}
	d.recs = d.recs[:0]
	for i := uint64(0); i < n; i++ {
		ui, rest, err := uvarint(p)
		if err != nil {
			return err
		}
		if ui >= uint64(len(d.userTab)) {
			return fmt.Errorf("%w: record %d user index %d of %d", ErrCorrupt, i, ui, len(d.userTab))
		}
		ci, rest, err := uvarint(rest)
		if err != nil {
			return err
		}
		if ci >= uint64(d.tab.Len()) {
			return fmt.Errorf("%w: record %d class index %d of %d", ErrCorrupt, i, ci, d.tab.Len())
		}
		vb, rest, err := uvarint(rest)
		if err != nil {
			return err
		}
		d.recs = append(d.recs, ingest.WireRecord{
			User:     int32(ui),
			Class:    int32(ci),
			VolumeMB: unpackVolume(vb),
		})
		p = rest
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return nil
}
