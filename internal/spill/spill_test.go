package spill

import (
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/types"
)

func sampleRecords() []Record {
	return []Record{
		{Side: 0, Seq: 1, Hash: 0xdeadbeef, Key: []byte("k1"),
			Tuple: types.Tuple{types.Int(42), types.Str("hello"), types.Float(3.5)}},
		{Side: 1, Seq: 9, Hash: 7, Key: []byte{},
			Tuple: types.Tuple{types.Null(), types.Date(19000), types.Bool(true)}},
		{Side: 1, Seq: 1 << 40, Hash: math.MaxUint64, Key: []byte("key-only"), Tuple: nil},
		{Side: 0, Seq: 0, Hash: 0, Key: []byte(strings.Repeat("x", 300)),
			Tuple: types.Tuple{types.Int(-5), types.Float(math.Inf(1)), types.Str("")}},
		{Side: 0, Seq: 5, Hash: 11, Key: []byte("ref"), Ref: 1},
		{Side: 1, Seq: 6, Hash: 12, Key: []byte{}, Ref: maxRef},
		{Side: 1, Seq: 7, Hash: 13, Key: []byte("wide"),
			Tuple: types.Tuple{types.Str(strings.Repeat("w", 200)), types.Int(1)}},
		{Side: 0, Seq: 8, Hash: 14, Key: []byte("empty"), Tuple: types.Tuple{}},
	}
}

func equalRecords(a, b *Record) bool {
	if a.Side != b.Side || a.Seq != b.Seq || a.Hash != b.Hash || string(a.Key) != string(b.Key) || a.Ref != b.Ref {
		return false
	}
	if (a.Tuple == nil) != (b.Tuple == nil) || len(a.Tuple) != len(b.Tuple) {
		return false
	}
	for i, v := range a.Tuple {
		w := b.Tuple[i]
		if v != w && (v.K != types.KindFloat || w.K != types.KindFloat || math.Float64bits(v.F) != math.Float64bits(w.F)) {
			return false // (a NaN equals itself bit for bit)
		}
	}
	return true
}

// TestRoundTrip: every appended record decodes back exactly, across frame
// boundaries, and the run supports multiple independent read passes.
func TestRoundTrip(t *testing.T) {
	run, err := NewRun(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()

	want := sampleRecords()
	// Enough volume to force several frame cuts.
	const copies = 2000
	for c := 0; c < copies; c++ {
		for i := range want {
			if err := run.Append(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, exp := run.Records(), int64(copies*len(want)); got != exp {
		t.Fatalf("Records() = %d, want %d", got, exp)
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	if run.Bytes() == 0 {
		t.Fatal("Flush wrote no bytes")
	}

	for pass := 0; pass < 3; pass++ {
		rd, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		n := 0
		for {
			ok, err := rd.Next(&rec)
			if err != nil {
				t.Fatalf("pass %d record %d: %v", pass, n, err)
			}
			if !ok {
				break
			}
			if exp := &want[n%len(want)]; !equalRecords(&rec, exp) {
				t.Fatalf("pass %d record %d = %+v, want %+v", pass, n, rec, *exp)
			}
			n++
		}
		if n != copies*len(want) {
			t.Fatalf("pass %d decoded %d records, want %d", pass, n, copies*len(want))
		}
		rd.Close()
	}
}

// TestEmptyRun: a run with no records reads back as empty, from a reader
// opened before any write.
func TestEmptyRun(t *testing.T) {
	run, err := NewRun(t.TempDir(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	if ok, err := rd.Next(&rec); ok || err != nil {
		t.Fatalf("empty run Next = (%v, %v), want (false, nil)", ok, err)
	}
}

// TestCorruptionDetected: flipping a payload byte must surface as a checksum
// error, not as silently wrong records.
func TestCorruptionDetected(t *testing.T) {
	run, err := NewRun(t.TempDir(), "corrupt")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the first frame's payload (offset 8 skips the
	// header).
	f, err := os.OpenFile(run.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 12); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("corruption surfaced as %v, want a checksum error", err)
			}
			return
		}
		if !ok {
			t.Fatal("corrupted frame read back without error")
		}
	}
}

// TestTruncationDetected: a run cut off mid-frame surfaces a truncation
// error.
func TestTruncationDetected(t *testing.T) {
	run, err := NewRun(t.TempDir(), "trunc")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(run.path, run.Bytes()-3); err != nil {
		t.Fatal(err)
	}

	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			return // truncation detected, as required
		}
		if !ok {
			t.Fatal("truncated frame read back as clean EOF")
		}
	}
}

// TestCloseRemovesFile: Close deletes the run's backing file (the per-query
// temp dir must not accumulate finished runs).
func TestCloseRemovesFile(t *testing.T) {
	dir := t.TempDir()
	run, err := NewRun(dir, "rm")
	if err != nil {
		t.Fatal(err)
	}
	path := run.path
	if err := run.Append(&Record{Key: []byte("k")}); err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("run file still exists after Close (stat err %v)", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestVarintBoundary pins the zigzag encoding of extreme ints.
func TestVarintBoundary(t *testing.T) {
	run, err := NewRun(t.TempDir(), "varint")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	want := Record{Seq: math.MaxUint64, Hash: 1,
		Key: binary.BigEndian.AppendUint64(nil, 1),
		Tuple: types.Tuple{types.Int(math.MinInt64), types.Int(math.MaxInt64),
			types.Float(math.NaN())}}
	if err := run.Append(&want); err != nil {
		t.Fatal(err)
	}
	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	if ok, err := rd.Next(&rec); !ok || err != nil {
		t.Fatalf("Next = (%v, %v)", ok, err)
	}
	if rec.Seq != want.Seq || rec.Tuple[0].I != math.MinInt64 || rec.Tuple[1].I != math.MaxInt64 {
		t.Fatalf("extremes decoded as %+v", rec)
	}
	if !math.IsNaN(rec.Tuple[2].F) {
		t.Fatalf("NaN decoded as %v", rec.Tuple[2].F)
	}

	// The values' length prefix takes one byte below 128 and shifts the values
	// when it takes two or three: round-trip every width around both steps,
	// between ref records, in both read paths. A string of s bytes encodes as
	// kind + uvarint(s) + s: values of 125–136 and 16378–16389 bytes.
	lens := []int{0, 1}
	for _, lo := range []int{123, 16375} {
		for s := lo; s < lo+11; s++ {
			lens = append(lens, s)
		}
	}
	var recs []Record
	for i, s := range lens {
		recs = append(recs, Record{Seq: uint64(i), Key: []byte{byte(i)}, Tuple: types.Tuple{types.Str(strings.Repeat("v", s))}},
			Record{Seq: uint64(i), Key: []byte{byte(i)}, Ref: uint64(i) + 1})
	}
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	full, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	hdr, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer hdr.Close()
	full.Next(&rec) // the extremes record
	hdr.NextKey(&rec)
	for i := range recs {
		var a, b Record
		if ok, err := full.Next(&a); !ok || err != nil || !equalRecords(&a, &recs[i]) {
			t.Fatalf("record %d: Next = (%v, %v) %+v", i, ok, err, a)
		}
		if ok, err := hdr.NextKey(&b); !ok || err != nil {
			t.Fatalf("record %d: NextKey = (%v, %v)", i, ok, err)
		}
		if recs[i].Tuple != nil {
			b.Tuple = make(types.Tuple, hdr.Width())
			if err := hdr.DecodeTuple(b.Tuple); err != nil {
				t.Fatalf("record %d: DecodeTuple: %v", i, err)
			}
		}
		if !equalRecords(&b, &recs[i]) {
			t.Fatalf("record %d: NextKey+DecodeTuple = %+v", i, b)
		}
	}
}

// TestNextKeyDecodeTuple: the header-only scan followed by DecodeTuple reads
// back exactly what Next does — ref, key-only and tuple records mixed in one
// run — and a scan that never decodes still walks every record.
func TestNextKeyDecodeTuple(t *testing.T) {
	run, err := NewRun(t.TempDir(), "nextkey")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	want := sampleRecords()
	const copies = 500
	for c := 0; c < copies; c++ {
		for i := range want {
			if err := run.Append(&want[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	full, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	hdr, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer hdr.Close()
	var a, b Record
	for n := 0; ; n++ {
		okA, errA := full.Next(&a)
		okB, errB := hdr.NextKey(&b)
		if errA != nil || errB != nil || okA != okB {
			t.Fatalf("record %d: Next = (%v, %v), NextKey = (%v, %v)", n, okA, errA, okB, errB)
		}
		if !okA {
			if n != copies*len(want) {
				t.Fatalf("read %d records, want %d", n, copies*len(want))
			}
			break
		}
		if b.Tuple != nil {
			t.Fatalf("record %d: NextKey set a tuple", n)
		}
		if a.Tuple != nil {
			if hdr.Width() != len(a.Tuple) {
				t.Fatalf("record %d: Width %d, Next decoded %d values", n, hdr.Width(), len(a.Tuple))
			}
			b.Tuple = make(types.Tuple, hdr.Width())
			if err := hdr.DecodeTuple(b.Tuple); err != nil {
				t.Fatalf("record %d: DecodeTuple: %v", n, err)
			}
		} else if hdr.Width() != 0 {
			t.Fatalf("record %d: Width %d without a tuple", n, hdr.Width())
		}
		if !equalRecords(&a, &b) {
			t.Fatalf("record %d: Next %+v, NextKey+DecodeTuple %+v", n, a, b)
		}
	}
	if full.Bytes() != run.Bytes() || hdr.Bytes() != run.Bytes() {
		t.Fatalf("readers read %d and %d bytes of a %d-byte run", full.Bytes(), hdr.Bytes(), run.Bytes())
	}

	skip, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer skip.Close()
	n := 0
	for {
		ok, err := skip.NextKey(&b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != copies*len(want) {
		t.Fatalf("header-only scan saw %d records, want %d", n, copies*len(want))
	}
}

// rawRun is a run whose file holds data verbatim or, when framed, data as
// the payload of one frame with a valid checksum: the decoder sees it past
// the CRC.
func rawRun(t testing.TB, data []byte, framed bool) *Run {
	t.Helper()
	run, err := NewRun(t.TempDir(), "raw")
	if err != nil {
		t.Fatal(err)
	}
	if framed {
		run.payload = append(run.payload[:0], data...)
		err = run.Flush()
	} else {
		_, err = run.f.Write(data)
		run.bytes = int64(len(data))
	}
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// recordHeader encodes a record header up to its body: side 0, seq 1, hash
// 2, key "k".
func recordHeader() []byte {
	b := []byte{0, 1}
	b = binary.LittleEndian.AppendUint64(b, 2)
	return append(b, 1, 'k')
}

// TestCorruptBody: a record whose body contradicts its frame — a value length
// past the frame's end, more values than bytes, values that do not fill their
// length, a ref beyond 32-bit row ids — is an error, never a panic, an
// oversized allocation or a silently wrong tuple; and Append refuses such a
// ref.
func TestCorruptBody(t *testing.T) {
	uv := binary.AppendUvarint
	tuple := func(ncols, vlen uint64, vals ...byte) []byte {
		b := uv(uv(uv(recordHeader(), 0), ncols+1), vlen)
		return append(b, vals...)
	}
	intVal := []byte{byte(types.KindInt), 2}
	cases := map[string]struct {
		payload []byte
		decode  bool // the header is valid; DecodeTuple must fail
	}{
		"value length past the frame": {payload: tuple(1, 50, intVal...)},
		"value length past 2^63":      {payload: tuple(1, math.MaxUint64, intVal...)},
		"more values than bytes":      {payload: tuple(3, 2, intVal...)},
		"key past the frame":          {payload: append([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 2}, 0xff, 0xff, 0x03, 'k')},
		"ref above 2^32":              {payload: uv(recordHeader(), maxRef+1)},
		"values short of the length":  {payload: tuple(1, 3, append(intVal, 0)...), decode: true},
		"value past the length":       {payload: tuple(1, 1, intVal...), decode: true},
		"unknown kind":                {payload: tuple(1, 2, 0x7f, 2), decode: true},
	}
	for name, c := range cases {
		run := rawRun(t, c.payload, true)
		rd, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		var rec Record
		ok, err := rd.NextKey(&rec)
		if c.decode {
			if !ok || err != nil {
				t.Fatalf("%s: NextKey = (%v, %v), want a valid header", name, ok, err)
			}
			err = rd.DecodeTuple(make(types.Tuple, rd.Width()))
		}
		if err == nil {
			t.Fatalf("%s: read back without error (%+v, width %d)", name, rec, rd.Width())
		}
		full, _ := run.Reader()
		if ok, err := full.Next(&rec); ok || err == nil {
			t.Fatalf("%s: Next = (%v, %v), want an error", name, ok, err)
		}
		full.Close()
		rd.Close()
		run.Close()
	}

	run, err := NewRun(t.TempDir(), "ref")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if err := run.Append(&Record{Key: []byte("k"), Ref: maxRef + 1}); err == nil {
		t.Fatal("Append took a ref above 2^32")
	}
}

// TestTruncatedAtFrameBoundary: a run that lost whole frames is a truncation
// error, not a clean end of run.
func TestTruncatedAtFrameBoundary(t *testing.T) {
	run, err := NewRun(t.TempDir(), "bound")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if err := run.Flush(); err != nil { // one frame per record
			t.Fatal(err)
		}
	}
	first := 8 + int64(len(appendRecord(nil, &recs[0])))
	if err := os.Truncate(run.path, first); err != nil {
		t.Fatal(err)
	}
	rd, err := run.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var rec Record
	if ok, err := rd.Next(&rec); !ok || err != nil {
		t.Fatalf("first frame: (%v, %v)", ok, err)
	}
	if ok, err := rd.Next(&rec); ok || err == nil {
		t.Fatalf("after the cut: (%v, %v), want a truncation error", ok, err)
	}
}

// sampleFile returns the bytes of a flushed run of sampleRecords: the input
// TestCorruptionDetected flips a byte of and TestTruncationDetected cuts.
func sampleFile(t testing.TB) []byte {
	run, err := NewRun(t.TempDir(), "sample")
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	recs := sampleRecords()
	for i := range recs {
		if err := run.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Flush(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(run.path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzSpillRun reads arbitrary bytes as a run file — or, framed, as the
// payload of one frame whose checksum holds, so the record decoder sees them
// — with Next and with NextKey + DecodeTuple. Neither may panic; both must
// read the same records and fail at the same one; a header never claims more
// values than its frame has bytes; the pass allocates in proportion to the
// input, not to the lengths it claims; and a clean end of run means every
// byte was read as a verified frame.
func FuzzSpillRun(f *testing.F) {
	good := sampleFile(f)
	flipped := append([]byte(nil), good...)
	flipped[12] = 0xff
	f.Add(good, false)
	f.Add(flipped, false)
	f.Add(good[:len(good)-3], false)
	f.Add(good[8:], true)
	f.Add(flipped[8:], true)
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		run := rawRun(t, data, framed)
		defer run.Close()
		full, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		hdr, err := run.Reader()
		if err != nil {
			t.Fatal(err)
		}
		defer hdr.Close()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		var a, b Record
		for n := 0; ; n++ {
			okA, errA := full.Next(&a)
			okB, errB := hdr.NextKey(&b)
			if errB == nil && okB {
				if hdr.Width() > len(data) {
					t.Fatalf("record %d: width %d from %d bytes of input", n, hdr.Width(), len(data))
				}
				// Decoding a record without a tuple is a no-op.
				tup := make(types.Tuple, hdr.Width())
				if errB = hdr.DecodeTuple(tup); a.Tuple != nil {
					b.Tuple = tup
				}
			}
			if (errA == nil) != (errB == nil) || (errA == nil && (okA != okB || !equalRecords(&a, &b))) {
				t.Fatalf("record %d: Next = (%v, %v) %+v, NextKey+DecodeTuple = (%v, %v) %+v", n, okA, errA, a, okB, errB, b)
			}
			if errA != nil {
				break
			}
			if !okA {
				if full.Bytes() != run.Bytes() {
					t.Fatalf("clean end of run after %d of %d bytes", full.Bytes(), run.Bytes())
				}
				break
			}
		}
		runtime.ReadMemStats(&ms)
		if grew := ms.TotalAlloc - before; grew > uint64(256*len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
	})
}
