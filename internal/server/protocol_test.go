package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// TestHostileLengths pins the fix for the uvarint-length overflow class: a
// 64-bit length near MaxUint64 used to convert to a negative int, slip past
// signed upper-bound checks, and panic in a slice expression or make().
// Every decoder must instead report a sticky protocol error.
func TestHostileLengths(t *testing.T) {
	huge := []uint64{1<<63 - 2, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for _, u := range huge {
		pfx := binary.AppendUvarint(nil, u)
		payload := append(append([]byte{}, pfx...), "padding"...)

		p := payloadReader{buf: payload}
		if p.string(); p.err == nil {
			t.Fatalf("string() accepted length %d", u)
		}
		p = payloadReader{buf: payload}
		if p.schema(); p.err == nil {
			t.Fatalf("schema() accepted column count %d", u)
		}
		sum := appendSummary(nil, &Summary{})
		sum = sum[:len(sum)-1] // drop the encoded 0 incomplete-count
		p = payloadReader{buf: append(sum, pfx...)}
		if p.summary(); p.err == nil {
			t.Fatalf("summary() accepted incomplete count %d", u)
		}

		// Execute frame: statement id 1, then a hostile argument count.
		exec := binary.AppendUvarint(nil, 1)
		exec = append(exec, pfx...)
		if req := decodeRequest(frameExecute, exec); !req.bad {
			t.Fatalf("decodeRequest accepted %d execute args", u)
		}

		// KindString value with a hostile payload length.
		val := append([]byte{byte(types.KindString)}, pfx...)
		p = payloadReader{buf: val}
		if p.value(); p.err == nil {
			t.Fatalf("value() accepted string length %d", u)
		}

		// RowBatch with a hostile row count ahead of a NULL run.
		p = payloadReader{buf: append(append([]byte{}, pfx...), byte(types.KindNull))}
		if p.rowBatch(make([]wireCol, 1)); p.err == nil {
			t.Fatalf("rowBatch() accepted row count %d", u)
		}
	}

	// RowBatch frames whose claims exceed their bytes: each must fail before
	// any run buffer is sized from the count.
	frame := func(n uint64, rest ...byte) []byte { return append(binary.AppendUvarint(nil, n), rest...) }
	for name, f := range map[string]struct {
		cols    int
		payload []byte
	}{
		"varint run longer than the frame":  {1, frame(1000, byte(types.KindInt), 2, 4, 6)},
		"string run longer than the frame":  {1, frame(1000, byte(types.KindString), 1, 'a')},
		"mixed run longer than the frame":   {1, frame(1000, tagMixed, byte(types.KindNull))},
		"DECIMAL run of 8n > bytes left":    {1, frame(3, append([]byte{byte(types.KindFloat)}, make([]byte, 23)...)...)},
		"unknown tag":                       {1, frame(1, 0x7e, 0)},
		"ends before the last column":       {2, frame(1, byte(types.KindInt), 2)},
		"ends inside a run":                 {1, frame(2, byte(types.KindString), 1, 'a', 5, 'b')},
		"bytes past the last column":        {1, frame(1, byte(types.KindInt), 2, 0)},
		"NULL run past the row-count bound": {1, frame(maxBatchRows+1, byte(types.KindNull))},
	} {
		cols := make([]wireCol, f.cols)
		p := payloadReader{buf: f.payload}
		if n := p.rowBatch(cols); p.err == nil || n != 0 {
			t.Errorf("%s: accepted (%d rows)", name, n)
		}
		for _, c := range cols {
			if len(c.ints)+len(c.floats)+len(c.vals) > len(f.payload) {
				t.Errorf("%s: sized a %d-value buffer from a %d-byte frame", name, len(c.ints)+len(c.floats)+len(c.vals), len(f.payload))
			}
		}
	}
	// A NULL run carries no bytes: the largest count is legal and free.
	cols := make([]wireCol, 1)
	p := payloadReader{buf: frame(maxBatchRows, byte(types.KindNull))}
	if n := p.rowBatch(cols); p.err != nil || n != maxBatchRows || cols[0].ints != nil || cols[0].vals != nil {
		t.Fatalf("NULL run of %d rows: n=%d err=%v", maxBatchRows, n, p.err)
	}
}

// appendRowBatch encodes rows, each width values wide, as a RowBatch payload,
// the way the session does.
func appendRowBatch(b []byte, rows []types.Tuple, width int) []byte {
	b = appendUvarint(b, uint64(len(rows)))
	for col := 0; col < width; col++ {
		b = appendRun(b, rows, col)
	}
	return b
}

// genRows draws n rows of one column per shape: each kind alone, NULL in
// every row, NULL in some rows, and kinds mixed.
func genRows(rng *rand.Rand, n int) []types.Tuple {
	str := func() types.Value { return types.Str(fmt.Sprintf("s%0*d", rng.Intn(12), rng.Intn(1000))) }
	gens := []func() types.Value{
		func() types.Value { return types.Int(rng.Int63n(1<<40) - 1<<39) },
		func() types.Value { return types.Int(rng.Int63()<<1 ^ rng.Int63()) }, // full 64-bit range
		func() types.Value { return types.Date(int64(8000 + rng.Intn(4000))) },
		func() types.Value { return types.Bool(rng.Intn(2) == 0) },
		func() types.Value { return types.Float(rng.NormFloat64() * 1e6) },
		str,
		types.Null,
		func() types.Value {
			if rng.Intn(4) == 0 {
				return types.Null()
			}
			return types.Int(int64(rng.Intn(100)))
		},
		func() types.Value {
			return []func() types.Value{str, types.Null, func() types.Value { return types.Float(rng.Float64()) },
				func() types.Value { return types.Int(-1) }}[rng.Intn(4)]()
		},
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = make(types.Tuple, len(gens))
		for j, g := range gens {
			rows[i][j] = g()
		}
	}
	return rows
}

// TestRowBatchCodec: generated batches of every column shape round-trip
// through encode, decode and boxing, at the row counts around the varint and
// frame-cut boundaries, and never cost more than the tagged-value layout did
// plus one byte per mixed column.
func TestRowBatchCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var cols []wireCol // reused across frames, as a cursor does
	for _, n := range []int{1, 2, 127, 128, 256, 257, 1025} {
		rows := genRows(rng, n)
		width := len(rows[0])
		if cols == nil {
			cols = make([]wireCol, width)
		}
		buf := appendRowBatch(nil, rows, width)

		tagged, mixed := len(binary.AppendUvarint(nil, uint64(n))), 0
		for j := 0; j < width; j++ {
			uniform := true
			for _, r := range rows {
				tagged += len(appendValue(nil, r[j]))
				uniform = uniform && r[j].K == rows[0][j].K
			}
			if !uniform {
				mixed++
			}
		}
		if len(buf) > tagged+mixed {
			t.Fatalf("%d rows: %d bytes, tagged values took %d (+%d mixed columns)", n, len(buf), tagged, mixed)
		}
		if n >= 127 && mixed != 2 {
			t.Fatalf("%d rows: %d mixed columns generated, want 2", n, mixed)
		}

		p := payloadReader{buf: buf}
		if got := p.rowBatch(cols); p.err != nil || got != n {
			t.Fatalf("%d rows: decoded %d, err %v", n, got, p.err)
		}
		for i, r := range rows {
			for j, want := range r {
				if got := cols[j].value(buf, i); got != want {
					t.Fatalf("%d rows: row %d col %d = %+v, want %+v", n, i, j, got, want)
				}
			}
		}
	}
	// A zero-row frame is never sent, and decodes: the tags of empty runs.
	p := payloadReader{buf: []byte{0, byte(types.KindInt), tagMixed}}
	if n := p.rowBatch(make([]wireCol, 2)); p.err != nil || n != 0 {
		t.Fatalf("zero-row frame: n=%d err=%v", n, p.err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.Int(0),
		types.Int(-1),
		types.Int(math.MaxInt64),
		types.Int(math.MinInt64),
		types.Float(0),
		types.Float(3.14159),
		types.Float(math.Inf(-1)),
		types.Str(""),
		types.Str("BRASS"),
		types.Str("it's\x00\xffweird"),
		types.Date(9131),
		types.Bool(true),
		types.Bool(false),
	}
	var buf []byte
	for _, v := range vals {
		buf = appendValue(buf, v)
	}
	p := payloadReader{buf: buf}
	for i, want := range vals {
		got := p.value()
		if p.err != nil {
			t.Fatalf("value %d: decode error", i)
		}
		if got != want {
			t.Fatalf("value %d: %+v, want %+v", i, got, want)
		}
	}
	if p.off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", p.off, len(buf))
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	sch := &types.Schema{Cols: []types.Column{
		{Table: "n", Name: "n_name", Kind: types.KindString},
		{Table: "", Name: "count(*)", Kind: types.KindInt},
		{Table: "o", Name: "o_orderdate", Kind: types.KindDate},
	}}
	buf := appendSchema(nil, sch)
	p := payloadReader{buf: buf}
	got := p.schema()
	if p.err != nil || got == nil {
		t.Fatal("decode failed")
	}
	if len(got.Cols) != len(sch.Cols) {
		t.Fatalf("%d cols, want %d", len(got.Cols), len(sch.Cols))
	}
	for i := range sch.Cols {
		if got.Cols[i] != sch.Cols[i] {
			t.Fatalf("col %d: %+v, want %+v", i, got.Cols[i], sch.Cols[i])
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	sum := &Summary{
		Rows: 42, DurationMicros: 1234, PeakStateBytes: 1 << 20,
		FiltersCreated: 3, FiltersInjected: 2, TuplesPruned: 999,
		PeakMemBytes: 5 << 20, SpillBytes: 7, SpillEvents: 1,
		Retries: 4, BreakerTransitions: 2, WastedBytes: 100,
		Incomplete: []IncompleteTable{
			{Table: "partsupp", Site: 1, Attempts: 3, Cause: "link down"},
		},
	}
	buf := appendSummary(nil, sum)
	p := payloadReader{buf: buf}
	got := p.summary()
	if p.err != nil || got == nil {
		t.Fatal("decode failed")
	}
	if got.Rows != sum.Rows || got.DurationMicros != sum.DurationMicros ||
		got.TuplesPruned != sum.TuplesPruned || len(got.Incomplete) != 1 ||
		got.Incomplete[0] != sum.Incomplete[0] {
		t.Fatalf("summary mismatch: %+v vs %+v", got, sum)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var w bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&w, frameQuery, payload); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&w, frameRowBatch, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&w, DefaultMaxFrame)
	if err != nil || typ != frameQuery || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: typ=%#x payload=%q err=%v", typ, got, err)
	}
	typ, got, err = readFrame(&w, DefaultMaxFrame)
	if err != nil || typ != frameRowBatch || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("frame 2: typ=%#x payload=%q err=%v", typ, got, err)
	}
}

func TestFrameBound(t *testing.T) {
	var w bytes.Buffer
	if err := writeFrame(&w, frameQuery, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(&w, 1024); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// FuzzPayloadReader feeds arbitrary bytes through every decoder: none may
// panic or read out of bounds, and any value that decodes cleanly must
// survive an encode/decode round trip (overlong varints mean the raw bytes
// themselves need not be canonical).
func FuzzPayloadReader(f *testing.F) {
	f.Add(appendValue(nil, types.Int(7)))
	f.Add(appendValue(nil, types.Str("x")))
	f.Add(appendSchema(nil, &types.Schema{Cols: []types.Column{{Name: "a", Kind: types.KindInt}}}))
	f.Add(appendSummary(nil, &Summary{Rows: 1}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Lengths near 2^63/2^64: negative after an unchecked int conversion.
	f.Add(binary.AppendUvarint(nil, 1<<63-2))
	f.Add(binary.AppendUvarint(nil, 1<<63))
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add(append(binary.AppendUvarint(nil, 1), binary.AppendUvarint(nil, 1<<63)...))
	f.Add(append([]byte{byte(types.KindString)}, binary.AppendUvarint(nil, 1<<63)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		{
			p := payloadReader{buf: data}
			v := p.value()
			if p.err == nil {
				re := payloadReader{buf: appendValue(nil, v)}
				got := re.value()
				// A NaN survives bit for bit but compares unequal to itself.
				if re.err != nil || got != v && !(v.K == types.KindFloat && v.F != v.F && got.F != got.F) {
					t.Fatalf("value %+v did not round-trip: %+v (err %v)", v, got, re.err)
				}
			}
		}
		{
			p := payloadReader{buf: data}
			p.schema()
		}
		{
			p := payloadReader{buf: data}
			p.summary()
		}
		{
			p := payloadReader{buf: data}
			p.string()
			p.uvarint()
			p.varint()
			p.byte()
			p.take(3)
		}
		// The server-side request decoders must be panic-free on arbitrary
		// payloads too — they run in the read loop, which has no recover.
		for _, typ := range []byte{frameQuery, framePrepare, frameExecute, frameCloseStmt, frameHello} {
			decodeRequest(typ, data)
		}
	})
}

// FuzzRowBatchDecode feeds arbitrary bytes to the RowBatch decoder under a
// schema of 1–4 columns: it must never panic, never size a buffer beyond the
// payload's length in values, and whatever decodes cleanly must box, and
// round-trip through the encoder.
func FuzzRowBatchDecode(f *testing.F) {
	rows := genRows(rand.New(rand.NewSource(1)), 5)
	typed := appendRowBatch(nil, []types.Tuple{rows[0][:3], rows[1][:3]}, 3)
	f.Add(typed, uint8(3))                                                                        // typed runs
	f.Add(appendRowBatch(nil, []types.Tuple{rows[0][7:], rows[1][7:], rows[2][7:]}, 2), uint8(2)) // mixed runs
	f.Add(append(binary.AppendUvarint(nil, maxBatchRows), byte(types.KindNull)), uint8(1))        // NULL run
	f.Add(typed[:len(typed)-2], uint8(3))                                                         // truncated
	f.Add(append(binary.AppendUvarint(nil, 1<<20), typed[1:]...), uint8(3))                       // over-count
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		cols := make([]wireCol, 1+ncols%4)
		p := payloadReader{buf: data}
		n := p.rowBatch(cols)
		for _, c := range cols {
			if len(c.ints) > len(data) || len(c.floats) > len(data) || len(c.vals) > len(data) {
				t.Fatalf("%d-byte payload sized buffers of %d/%d/%d values", len(data), len(c.ints), len(c.floats), len(c.vals))
			}
		}
		if p.err != nil || n == 0 {
			return
		}
		boxed := make([]types.Tuple, min(n, 64))
		for i := range boxed {
			boxed[i] = make(types.Tuple, len(cols))
			for j := range cols {
				boxed[i][j] = cols[j].value(data, i)
			}
		}
		re := payloadReader{buf: appendRowBatch(nil, boxed, len(cols))}
		back := make([]wireCol, len(cols))
		if got := re.rowBatch(back); re.err != nil || got != len(boxed) {
			t.Fatalf("re-encoded batch did not decode: %d rows, err %v", got, re.err)
		}
		for i, r := range boxed {
			for j, want := range r {
				// NaN payloads survive bit for bit but compare unequal.
				if got := back[j].value(re.buf, i); got != want && !(want.K == types.KindFloat && want.F != want.F) {
					t.Fatalf("row %d col %d: %+v, want %+v", i, j, got, want)
				}
			}
		}
	})
}

// FuzzReadFrame ensures a hostile stream cannot crash the frame layer or
// defeat the size bound.
func FuzzReadFrame(f *testing.F) {
	var w bytes.Buffer
	writeFrame(&w, frameHello, []byte(protoMagic))
	f.Add(w.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), 1<<16)
		if err == nil && len(payload) > 1<<16 {
			t.Fatalf("frame type %#x exceeded bound: %d bytes", typ, len(payload))
		}
	})
}
