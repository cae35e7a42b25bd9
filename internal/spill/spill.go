// Package spill is the out-of-core state layer behind the executor's
// bucket-discard eviction policy: when a partitioned operator's hash state
// exceeds its memory share, whole buckets are serialized to a spill run on
// disk and the memory is reclaimed; a merge/rescan phase drains the runs
// after input-done.
//
// A Run is an append-only file of Records, batch-serialized into CRC-guarded
// frames: records accumulate in an in-memory payload buffer and are written
// as one frame — [u32 payload length][u32 CRC-32 (Castagnoli)][payload] —
// when the buffer fills or Flush is called, so the per-record write cost is
// one buffer append, not one syscall. Readers verify each frame's checksum
// before decoding, so a torn or corrupted run surfaces as a typed error
// instead of wrong query results. A Run may be read concurrently with
// nothing (readers come after the writer's Flush) and re-read any number of
// times — the executor's merge phase makes one pass per hash sub-bucket.
//
// A record is a header — side, ticket, key hash and key bytes — and a body,
// one of: nothing (a key-only record), a Ref (row id + 1 of a row the reader
// can resolve itself, such as a base-table row resident for the whole query,
// written in place of the tuple), or a tuple whose values are prefixed by
// their encoded byte length. The prefix is what makes a header-only scan
// cheap: Reader.NextKey decodes the header and skips the values without
// touching them, so a merge pass that rejects most records — another
// sub-bucket, no matching key — pays neither their decode nor an allocation,
// and decodes the survivors with DecodeTuple. Reader.Next is the full decode
// through the same path.
//
// Values are encoded kind-tagged: integer-backed kinds as zigzag varints,
// floats as raw IEEE bits, strings length-prefixed, NULL as a bare tag. The
// encoding is exact — a decoded Record compares equal to what was appended —
// which is what lets capped (spilling) executions return byte-identical
// results to unbounded ones.
//
// Temp-file lifecycle is owned by the caller: runs are created inside a
// caller-supplied directory (the executor uses one temp dir per query,
// removed when the query finishes), and Close removes the run's file
// eagerly.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/types"
)

// Record is one spilled hash-table entry. Side distinguishes an operator's
// two inputs (join build sides; the distinct operator reuses it to mark
// already-emitted keys), Seq is the entry's partition ticket (the symmetric
// join's arrival clock), Hash/Key are the entry's hash-table identity, and
// Tuple is the stored row (nil for key-only records). A non-zero Ref is
// written in place of Tuple: row id + 1 of a row the reader resolves itself.
type Record struct {
	Side  uint8
	Seq   uint64
	Hash  uint64
	Key   []byte
	Ref   uint64
	Tuple types.Tuple
}

// maxRef bounds Record.Ref: row ids are 32-bit.
const maxRef = 1 << 32

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameTarget is the payload size at which a frame is cut: large enough to
// amortize the 8-byte frame header and the write syscall, small enough that
// a reader's frame buffer stays cache-friendly.
const frameTarget = 64 << 10

// Run is an append-only spill file. Append and Flush are the writer side;
// Reader opens an independent decode pass over everything flushed so far.
// A Run is not concurrency-safe: the executor serializes access per
// operator partition.
type Run struct {
	f       *os.File
	path    string
	payload []byte // current frame under construction
	bytes   int64  // total frame bytes written (header + payload)
	records int64

	// OnWrite, when set, is called with the size of every frame written.
	OnWrite func(n int64)
}

// NewRun creates a run file inside dir (pattern names the operator for
// debuggability; the actual filename is unique).
func NewRun(dir, pattern string) (*Run, error) {
	f, err := os.CreateTemp(dir, pattern+"-*.run")
	if err != nil {
		return nil, fmt.Errorf("spill: create run: %w", err)
	}
	return &Run{f: f, path: f.Name()}, nil
}

// Append serializes one record into the current frame, cutting the frame to
// disk when it reaches the target size. The record's Key and Tuple are
// copied by encoding; the caller may reuse them immediately.
func (r *Run) Append(rec *Record) error {
	if rec.Ref > maxRef {
		return fmt.Errorf("spill: ref %d out of range", rec.Ref)
	}
	r.payload = appendRecord(r.payload, rec)
	r.records++
	if len(r.payload) >= frameTarget {
		return r.cut()
	}
	return nil
}

// Flush writes any buffered records as a final (possibly short) frame. Call
// before opening a Reader.
func (r *Run) Flush() error {
	if len(r.payload) == 0 {
		return nil
	}
	return r.cut()
}

// cut writes the buffered payload as one CRC'd frame.
func (r *Run) cut() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(r.payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(r.payload, castagnoli))
	if _, err := r.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("spill: write frame: %w", err)
	}
	if _, err := r.f.Write(r.payload); err != nil {
		return fmt.Errorf("spill: write frame: %w", err)
	}
	n := int64(8 + len(r.payload))
	r.bytes += n
	r.payload = r.payload[:0]
	if r.OnWrite != nil {
		r.OnWrite(n)
	}
	return nil
}

// Bytes returns the total bytes written to disk so far (frame headers
// included, unflushed buffer excluded).
func (r *Run) Bytes() int64 { return r.bytes }

// Records returns the number of records appended (flushed or not).
func (r *Run) Records() int64 { return r.records }

// Close removes the run's file. Safe to call more than once.
func (r *Run) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	if rmErr := os.Remove(r.path); err == nil {
		err = rmErr
	}
	return err
}

// Reader opens an independent sequential pass over everything flushed so
// far. The executor's merge phase calls it once per hash sub-bucket, so a
// run must support many passes; each Reader holds its own file handle.
func (r *Run) Reader() (*Reader, error) {
	if err := r.Flush(); err != nil {
		return nil, err
	}
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("spill: reopen run: %w", err)
	}
	return &Reader{br: bufio.NewReaderSize(f, 64<<10), f: f, remain: r.bytes}, nil
}

// Reader decodes a Run front to back in append order.
type Reader struct {
	br     *bufio.Reader
	f      *os.File
	hdr    [8]byte
	remain int64  // flushed bytes not yet read: a frame may not claim more
	read   int64  // frame bytes read so far
	frame  []byte // current verified frame payload
	off    int    // decode cursor into frame

	// The body of the record NextKey last returned.
	vals  []byte // its encoded values
	width int    // their count
	tuple bool   // whether it carries a tuple (possibly of zero values)
}

// Next decodes the next record into rec, returning false at end of run.
// rec.Key aliases the reader's frame buffer and is valid until the next
// Next call; rec.Tuple is freshly allocated (nil for a key-only or ref
// record).
func (rd *Reader) Next(rec *Record) (bool, error) {
	ok, err := rd.NextKey(rec)
	if !ok || err != nil || !rd.tuple {
		return ok, err
	}
	t := make(types.Tuple, rd.width)
	if err := rd.DecodeTuple(t); err != nil {
		return false, err
	}
	rec.Tuple = t
	return true, nil
}

// NextKey decodes the next record's header — Side, Seq, Hash, Key, Ref —
// into rec and skips its values, returning false at end of run. rec.Tuple is
// set to nil; until the next call, DecodeTuple decodes the skipped values.
// rec.Key aliases the reader's frame buffer, as with Next.
func (rd *Reader) NextKey(rec *Record) (bool, error) {
	for rd.off >= len(rd.frame) {
		ok, err := rd.nextFrame()
		if err != nil || !ok {
			return false, err
		}
	}
	n, err := rd.header(rd.frame[rd.off:], rec)
	if err != nil {
		return false, err
	}
	rd.off += n
	return true, nil
}

// Width returns the number of values of the record NextKey last returned (0
// for a key-only or ref record).
func (rd *Reader) Width() int { return rd.width }

// Bytes returns the frame bytes this reader has read so far.
func (rd *Reader) Bytes() int64 { return rd.read }

// nextFrame reads and CRC-verifies the next frame; false means clean EOF,
// which is only where the flushed frames end.
func (rd *Reader) nextFrame() (bool, error) {
	if rd.remain == 0 {
		return false, nil
	}
	if _, err := io.ReadFull(rd.br, rd.hdr[:]); err != nil {
		return false, fmt.Errorf("spill: truncated run, frame header: %w", err)
	}
	size := binary.LittleEndian.Uint32(rd.hdr[0:])
	want := binary.LittleEndian.Uint32(rd.hdr[4:])
	if int64(size) > rd.remain-8 {
		return false, fmt.Errorf("spill: frame of %d bytes overruns the run", size)
	}
	if cap(rd.frame) < int(size) {
		rd.frame = make([]byte, size)
	}
	rd.frame = rd.frame[:size]
	if _, err := io.ReadFull(rd.br, rd.frame); err != nil {
		return false, fmt.Errorf("spill: truncated frame: %w", err)
	}
	if got := crc32.Checksum(rd.frame, castagnoli); got != want {
		return false, fmt.Errorf("spill: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	rd.remain -= 8 + int64(size)
	rd.read += 8 + int64(size)
	rd.off = 0
	return true, nil
}

// Close releases the reader's file handle.
func (rd *Reader) Close() error { return rd.f.Close() }

// Record encoding, inside a frame:
//
//	side u8 · seq uvarint · hash fixed64 · keyLen uvarint · key bytes ·
//	ref uvarint (0 = none; else the record ends here) ·
//	ncols+1 uvarint (0 = no tuple; else:) · valLen uvarint · values
//
// Values are valLen bytes, per value kind u8 + payload: NULL none;
// INT/DATE/BOOL zigzag varint; FLOAT raw IEEE bits fixed64; STRING uvarint
// length + bytes.
func appendRecord(dst []byte, rec *Record) []byte {
	dst = append(dst, rec.Side)
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Hash)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.AppendUvarint(dst, rec.Ref)
	if rec.Ref != 0 {
		return dst
	}
	if rec.Tuple == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Tuple))+1)
	// The values' length is known once they are encoded: reserve one byte,
	// which holds it below 128, and shift the values when it takes more.
	mark := len(dst)
	dst = append(dst, 0)
	for _, v := range rec.Tuple {
		dst = append(dst, byte(v.K))
		switch v.K {
		case types.KindNull:
		case types.KindInt, types.KindDate, types.KindBool:
			dst = binary.AppendVarint(dst, v.I)
		case types.KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case types.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("spill: unencodable kind %v", v.K))
		}
	}
	vlen := len(dst) - mark - 1
	if vlen < 0x80 {
		dst[mark] = byte(vlen)
		return dst
	}
	var lb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lb[:], uint64(vlen))
	dst = append(dst, lb[1:n]...)
	copy(dst[mark+n:], dst[mark+1:mark+1+vlen])
	copy(dst[mark:], lb[:n])
	return dst
}

var errCorrupt = errors.New("spill: corrupt record encoding")

// uvarint decodes the uvarint at b[off:], returning it and the offset past
// it; ok is false when b holds none there.
func uvarint(b []byte, off int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[off:])
	return v, off + n, n > 0
}

// header decodes the header of the record b starts with into rec and notes
// its body, returning the record's encoded length. rec.Key aliases b. A
// tuple's value count is checked against its byte length (every value takes
// at least a byte), so Width never exceeds the frame.
func (rd *Reader) header(b []byte, rec *Record) (int, error) {
	rec.Side, rec.Tuple = b[0], nil
	rd.vals, rd.width, rd.tuple = nil, 0, false
	seq, off, ok := uvarint(b, 1)
	if !ok || len(b)-off < 8 {
		return 0, errCorrupt
	}
	rec.Seq = seq
	rec.Hash = binary.LittleEndian.Uint64(b[off:])
	klen, off, ok := uvarint(b, off+8)
	if !ok || uint64(len(b)-off) < klen {
		return 0, errCorrupt
	}
	rec.Key = b[off : off+int(klen)]
	if rec.Ref, off, ok = uvarint(b, off+int(klen)); !ok || rec.Ref > maxRef {
		return 0, errCorrupt
	}
	if rec.Ref != 0 {
		return off, nil
	}
	ncols, off, ok := uvarint(b, off)
	if !ok {
		return 0, errCorrupt
	}
	if ncols == 0 {
		return off, nil
	}
	vlen, off, ok := uvarint(b, off)
	if !ok || uint64(len(b)-off) < vlen || ncols-1 > vlen {
		return 0, errCorrupt
	}
	rd.vals, rd.width, rd.tuple = b[off:off+int(vlen)], int(ncols-1), true
	return off + int(vlen), nil
}

// DecodeTuple decodes the values of the record NextKey last returned into
// dst, which must hold Width() values; strings are copied out of the frame.
// The values must fill their encoded length exactly.
func (rd *Reader) DecodeTuple(dst types.Tuple) error {
	b, off := rd.vals, 0
	for i := range dst[:rd.width] {
		if off >= len(b) {
			return errCorrupt
		}
		k := types.Kind(b[off])
		off++
		switch k {
		case types.KindNull:
			dst[i] = types.Null()
		case types.KindInt, types.KindDate, types.KindBool:
			v, n := binary.Varint(b[off:])
			if n <= 0 {
				return errCorrupt
			}
			off += n
			dst[i] = types.Value{K: k, I: v}
		case types.KindFloat:
			if len(b)-off < 8 {
				return errCorrupt
			}
			dst[i] = types.Float(math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
			off += 8
		case types.KindString:
			slen, next, ok := uvarint(b, off)
			if !ok || uint64(len(b)-next) < slen {
				return errCorrupt
			}
			off = next + int(slen)
			dst[i] = types.Str(string(b[next:off]))
		default:
			return fmt.Errorf("spill: unknown value kind %d", k)
		}
	}
	if off != len(b) {
		return errCorrupt
	}
	return nil
}
