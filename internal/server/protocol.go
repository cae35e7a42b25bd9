package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/types"
)

// Protocol constants. A frame is a 4-byte big-endian payload length, one
// type byte, and the payload; see the package comment for the full frame
// contract.
const (
	// protoMagic opens every connection; a server greeted with anything
	// else drops the connection without a reply (it is not speaking our
	// protocol, so an error frame would be noise on its wire).
	protoMagic = "SIPW"

	// ProtoVersion is the newest protocol revision this package speaks.
	// The handshake negotiates min(client max, server max); version 0 is
	// never valid, so a client older than MinProtoVersion is refused with
	// an error frame. Version 2 made RowBatch payloads column runs, version
	// 3 dropped the scheduler string from the Hello, and version 4 made
	// integer runs fixed-width (frame-of-reference).
	ProtoVersion = 4

	// MinProtoVersion is the oldest revision the server still accepts.
	MinProtoVersion = 4

	// DefaultMaxFrame bounds a single frame's payload. Row batches are cut
	// well below this (near 64 KiB, or ≤ 1 024 fixed-width rows); the bound
	// exists so a corrupt or hostile length prefix cannot make either side
	// allocate gigabytes.
	DefaultMaxFrame = 16 << 20
)

// Frame types. The high bit marks server→client frames.
const (
	frameHello     = 0x01 // magic, max version, tenant, session options
	frameQuery     = 0x02 // ad-hoc SQL text
	framePrepare   = 0x03 // SQL text to compile
	frameExecute   = 0x04 // statement id + arguments
	frameCloseStmt = 0x05 // statement id
	frameCancel    = 0x06 // cancel the in-flight query (out of band)
	frameQuit      = 0x07 // clean session end

	frameHelloOK  = 0x81 // negotiated version + server banner
	frameError    = 0x82 // code + message; terminates the current exchange
	frameStmtOK   = 0x83 // statement id, param count, result schema
	frameSchema   = 0x84 // result schema; opens a row stream
	frameRowBatch = 0x85 // n rows as one run per schema column
	frameDone     = 0x86 // execution summary; closes a row stream
)

// Error codes carried by frameError. Codes are part of the wire contract;
// messages are human-readable detail.
const (
	errCodePlan     = "plan"     // parse/bind/optimize failed
	errCodeExec     = "exec"     // execution failed
	errCodeSource   = "source"   // a source stayed dead (fail-fast mode)
	errCodeMemory   = "memory"   // memory budget too small to run
	errCodeCanceled = "canceled" // query canceled (client Cancel or disconnect)
	errCodeProto    = "protocol" // malformed or out-of-sequence frame
	errCodeShutdown = "shutdown" // server is draining; no new queries
	errCodeVersion  = "version"  // handshake version mismatch
)

// frameHeaderLen is the fixed prefix: 4-byte payload length + 1 type byte.
const frameHeaderLen = 5

// writeFrame appends a complete frame to w. The payload must already be
// encoded; writeFrame adds the length/type header.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from r, enforcing the payload bound.
func readFrame(r io.Reader, maxFrame int) (typ byte, payload []byte, err error) {
	typ, payload, _, err = readFrameInto(r, maxFrame, nil)
	return typ, payload, err
}

// readFrameInto is readFrame with a caller-owned scratch buffer: the payload
// slice aliases scratch (grown as needed and returned). Safe only when the
// caller fully consumes or copies the payload before the next read — the
// client's strictly sequential exchanges qualify; the server's read loop
// does not (it may read a pipelined frame while the previous request is
// still being executed).
func readFrameInto(r io.Reader, maxFrame int, scratch []byte) (typ byte, payload, grown []byte, err error) {
	// An array for the header would escape through r: an allocation a frame.
	if cap(scratch) < frameHeaderLen {
		scratch = make([]byte, 512)
	}
	hdr := scratch[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, scratch, err
	}
	n, typ := binary.BigEndian.Uint32(hdr[:4]), hdr[4]
	if int64(n) > int64(maxFrame) {
		return 0, nil, scratch, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	if uint64(cap(scratch)) < uint64(n) {
		scratch = make([]byte, n)
	}
	payload = scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, scratch, err
	}
	return typ, payload, scratch, nil
}

// ---- payload encoding ------------------------------------------------------
//
// Payloads are built from three primitives: unsigned varints, length-
// prefixed strings, and tagged values (one kind byte, then the kind's
// natural encoding). Appending into a caller-owned buffer keeps the row
// stream allocation-free once the per-session scratch buffer has grown to
// its working size.

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue encodes one tagged value: its kind, then appendBare.
func appendValue(b []byte, v types.Value) []byte { return appendBare(append(b, byte(v.K)), v) }

// appendBare encodes a value whose kind the reader knows.
func appendBare(b []byte, v types.Value) []byte {
	switch v.K {
	case types.KindNull:
	case types.KindInt, types.KindDate, types.KindBool:
		b = appendVarint(b, v.I)
	case types.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case types.KindString:
		b = appendString(b, v.S)
	}
	return b
}

// appendSchema encodes a result schema: column count, then per column the
// qualifier, name, and kind.
func appendSchema(b []byte, sch *types.Schema) []byte {
	if sch == nil {
		return appendUvarint(b, 0)
	}
	b = appendUvarint(b, uint64(len(sch.Cols)))
	for _, c := range sch.Cols {
		b = appendString(b, c.Table)
		b = appendString(b, c.Name)
		b = append(b, byte(c.Kind))
	}
	return b
}

// payloadReader is a sticky-error cursor over one frame's payload. Every
// decode helper checks err first, so a malformed payload degrades to a
// single "short payload" error instead of a panic.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("server: short or malformed frame payload")
	}
}

func (p *payloadReader) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		p.fail()
		return 0
	}
	p.off += n
	return v
}

func (p *payloadReader) varint() int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.buf[p.off:])
	if n <= 0 {
		p.fail()
		return 0
	}
	p.off += n
	return v
}

func (p *payloadReader) byte() byte {
	if p.err != nil {
		return 0
	}
	if p.off >= len(p.buf) {
		p.fail()
		return 0
	}
	b := p.buf[p.off]
	p.off++
	return b
}

// take returns the next n raw bytes (the handshake magic).
func (p *payloadReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if p.off+n > len(p.buf) {
		p.fail()
		return nil
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

// length decodes a uvarint that will be used as an element count or byte
// length, rejecting anything above max while still a uint64 — converting
// first would let a hostile 64-bit value wrap to a negative int and slip
// past a signed bound into a panicking make() or slice expression.
func (p *payloadReader) length(max int) int {
	u := p.uvarint()
	if p.err != nil {
		return 0
	}
	if u > uint64(max) {
		p.fail()
		return 0
	}
	return int(u)
}

func (p *payloadReader) string() string {
	u := p.uvarint()
	if p.err != nil {
		return ""
	}
	// Compare against the bytes remaining after the varint, as a uint64:
	// converting u to int first would let a 64-bit length wrap negative.
	if u > uint64(len(p.buf)-p.off) {
		p.fail()
		return ""
	}
	n := int(u)
	s := string(p.buf[p.off : p.off+n])
	p.off += n
	return s
}

func (p *payloadReader) value() types.Value {
	k := types.Kind(p.byte())
	switch k {
	case types.KindNull:
		return types.Null()
	case types.KindInt, types.KindDate, types.KindBool:
		return types.Value{K: k, I: p.varint()}
	case types.KindFloat:
		if p.err != nil || p.off+8 > len(p.buf) {
			p.fail()
			return types.Null()
		}
		f := math.Float64frombits(binary.BigEndian.Uint64(p.buf[p.off:]))
		p.off += 8
		return types.Float(f)
	case types.KindString:
		return types.Str(p.string())
	default:
		p.fail()
		return types.Null()
	}
}

// ---- row batches -------------------------------------------------------------
//
// A RowBatch payload is the row count n, then per schema column one tag byte
// and a run of n values: their kind and n bare values when they all share it
// (nothing at all for NULL), or tagMixed and n tagged values. An integer run
// is its minimum, then, when n > 1, a width byte w and n w-byte offsets from
// it, so a one-row run costs what its tagged value does.

const tagMixed = 0xFF
const maxBatchRows = 1 << 24 // a NULL or constant run carries no bytes, so the count needs its own bound

// appendRun encodes column col of rows (at least one) as a tag and a run. An
// integer column is gathered, with its bounds, into ints (scratch, returned).
func appendRun(b []byte, ints []int64, rows []types.Tuple, col int) ([]byte, []int64) {
	tag := byte(rows[0][col].K)
	for _, r := range rows[1:] {
		if byte(r[col].K) != tag {
			tag = tagMixed
			break
		}
	}
	if k := types.Kind(tag); k == types.KindInt || k == types.KindDate || k == types.KindBool {
		ints = ints[:0]
		lo, hi := rows[0][col].I, rows[0][col].I
		for _, r := range rows {
			ints = append(ints, r[col].I)
			lo, hi = min(lo, r[col].I), max(hi, r[col].I)
		}
		return appendInts(b, k, ints, lo, hi), ints
	}
	b = append(b, tag)
	for _, r := range rows {
		if tag == tagMixed {
			b = append(b, byte(r[col].K))
		}
		b = appendBare(b, r[col])
	}
	return b, ints
}

// appendIntRun and appendFloatRun are appendRun for rows rids of a typed
// column vector, the shape a row-id batch has.
func appendIntRun(b []byte, ints []int64, k types.Kind, vec []int64, rids []int32) ([]byte, []int64) {
	ints = ints[:0]
	lo, hi := vec[rids[0]], vec[rids[0]]
	for _, r := range rids {
		v := vec[r]
		ints = append(ints, v)
		lo, hi = min(lo, v), max(hi, v)
	}
	return appendInts(b, k, ints, lo, hi), ints
}

func appendFloatRun(b []byte, vec []float64, rids []int32) []byte {
	b = append(b, byte(types.KindFloat))
	for _, r := range rids {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(vec[r]))
	}
	return b
}

// appendInts encodes vals (at least one, all in [lo, hi]) as a frame-of-
// reference run of kind k. An offset, computed in uint64 so any span fits,
// is stored as 8 bytes whose zeros past the width the next one overwrites.
func appendInts(b []byte, k types.Kind, vals []int64, lo, hi int64) []byte {
	b = appendVarint(append(b, byte(k)), lo)
	if len(vals) == 1 {
		return b
	}
	w := [9]int{0, 1, 2, 4, 4, 8, 8, 8, 8}[(bits.Len64(uint64(hi)-uint64(lo))+7)/8] // bytes → width
	b = append(b, byte(w))
	n := len(b)
	b = slices.Grow(b, w*len(vals)+8)[:n+w*len(vals)+8]
	for d, i := b[n:], 0; i < len(vals); d, i = d[w:], i+1 {
		binary.LittleEndian.PutUint64(d, uint64(vals[i]-lo))
	}
	return b[:n+w*len(vals)]
}

// wireCol is one decoded run. A fixed-width run (integer or DECIMAL) is read
// in place from the payload, its values w bytes apart from off; the buffers,
// reused from frame to frame, hold the others.
type wireCol struct {
	tag    byte
	w, off int           // w: for a variable-width run, the least a value takes
	base   int64         // an integer run's minimum
	ints   []int64       // STRING: payload offset<<32 | length
	vals   []types.Value // tagMixed
}

// rowBatch decodes and validates a whole RowBatch payload into cols, one per
// schema column, and returns the row count. A run's count is checked against
// the bytes left before its buffer is sized: a frame allocates O(payload),
// and a fixed-width run, valid whatever its bytes, allocates nothing.
func (p *payloadReader) rowBatch(cols []wireCol) int {
	n := p.length(maxBatchRows)
	for i := range cols {
		c := &cols[i]
		c.tag, c.w = p.byte(), 1
		switch types.Kind(c.tag) {
		case types.KindInt, types.KindDate, types.KindBool:
			if c.w = 0; n > 0 {
				c.base = p.varint()
			}
			if n > 1 {
				if c.w = int(p.byte()); c.w > 8 || c.w&(c.w-1) != 0 {
					p.fail()
				}
			}
		case types.KindFloat:
			c.w = 8
		case types.KindNull:
			c.w = 0
		}
		if p.err != nil || n*c.w > len(p.buf)-p.off {
			p.fail()
			return 0
		}
		c.off = p.off
		switch types.Kind(c.tag) {
		case types.KindNull, types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
			p.off += n * c.w
		case types.KindString:
			c.ints = slices.Grow(c.ints[:0], n)[:n]
			for j := range c.ints {
				ln := p.length(len(p.buf) - p.off)
				c.ints[j] = int64(uint64(p.off)<<32 | uint64(ln))
				p.take(ln) // checks the extent
			}
		case tagMixed:
			c.vals = slices.Grow(c.vals[:0], n)[:n]
			for j := range c.vals {
				c.vals[j] = p.value()
			}
		default:
			p.fail()
		}
	}
	if p.err != nil || p.off != len(p.buf) { // bytes past the last column
		p.fail()
		return 0
	}
	return n
}

// value boxes row i of the run; buf is the payload it was decoded from.
func (c *wireCol) value(buf []byte, i int) types.Value {
	switch k := types.Kind(c.tag); k {
	case types.KindNull:
		return types.Null()
	case types.KindInt, types.KindDate, types.KindBool:
		d, at := uint64(0), buf[c.off+i*c.w:]
		for j := c.w - 1; j >= 0; j-- {
			d = d<<8 | uint64(at[j])
		}
		return types.Value{K: k, I: c.base + int64(d)}
	case types.KindFloat:
		return types.Float(math.Float64frombits(binary.BigEndian.Uint64(buf[c.off+8*i:])))
	case types.KindString:
		u := uint64(c.ints[i])
		return types.Str(string(buf[u>>32 : u>>32+u&math.MaxUint32]))
	default:
		return c.vals[i]
	}
}

func (p *payloadReader) schema() *types.Schema {
	n := p.length(1 << 16)
	if p.err != nil {
		return nil
	}
	cols := make([]types.Column, n)
	for i := range cols {
		cols[i].Table = p.string()
		cols[i].Name = p.string()
		cols[i].Kind = types.Kind(p.byte())
	}
	if p.err != nil {
		return nil
	}
	return &types.Schema{Cols: cols}
}

// Summary is the execution footer carried by a frameDone: the row count,
// server-side duration, the result counters a client-side footer needs, and
// the list of sources a degraded (partial) result abandoned.
type Summary struct {
	Rows               int64
	DurationMicros     int64
	PeakStateBytes     int64
	FiltersCreated     int64
	FiltersInjected    int64
	TuplesPruned       int64
	PeakMemBytes       int64
	SpillBytes         int64
	SpillEvents        int64
	Retries            int64
	BreakerTransitions int64
	WastedBytes        int64
	Incomplete         []IncompleteTable
}

// IncompleteTable names one source a partial result is missing, mirroring
// sip.SourceError across the wire.
type IncompleteTable struct {
	Table    string
	Site     int
	Attempts int
	Cause    string
}

func appendSummary(b []byte, s *Summary) []byte {
	b = appendVarint(b, s.Rows)
	b = appendVarint(b, s.DurationMicros)
	b = appendVarint(b, s.PeakStateBytes)
	b = appendVarint(b, s.FiltersCreated)
	b = appendVarint(b, s.FiltersInjected)
	b = appendVarint(b, s.TuplesPruned)
	b = appendVarint(b, s.PeakMemBytes)
	b = appendVarint(b, s.SpillBytes)
	b = appendVarint(b, s.SpillEvents)
	b = appendVarint(b, s.Retries)
	b = appendVarint(b, s.BreakerTransitions)
	b = appendVarint(b, s.WastedBytes)
	b = appendUvarint(b, uint64(len(s.Incomplete)))
	for _, t := range s.Incomplete {
		b = appendString(b, t.Table)
		b = appendVarint(b, int64(t.Site))
		b = appendVarint(b, int64(t.Attempts))
		b = appendString(b, t.Cause)
	}
	return b
}

func (p *payloadReader) summary() *Summary {
	s := &Summary{
		Rows:               p.varint(),
		DurationMicros:     p.varint(),
		PeakStateBytes:     p.varint(),
		FiltersCreated:     p.varint(),
		FiltersInjected:    p.varint(),
		TuplesPruned:       p.varint(),
		PeakMemBytes:       p.varint(),
		SpillBytes:         p.varint(),
		SpillEvents:        p.varint(),
		Retries:            p.varint(),
		BreakerTransitions: p.varint(),
		WastedBytes:        p.varint(),
	}
	n := p.length(1 << 16)
	if p.err != nil {
		return nil
	}
	for i := 0; i < n; i++ {
		s.Incomplete = append(s.Incomplete, IncompleteTable{
			Table:    p.string(),
			Site:     int(p.varint()),
			Attempts: int(p.varint()),
			Cause:    p.string(),
		})
	}
	if p.err != nil {
		return nil
	}
	return s
}
