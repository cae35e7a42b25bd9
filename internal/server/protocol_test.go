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
		"integer run of n·w > bytes left":   {1, frame(1000, byte(types.KindInt), 2, 4, 6)},
		"integer run of 8n > bytes left":    {1, frame(3, append([]byte{byte(types.KindDate), 0, 8}, make([]byte, 23)...)...)},
		"width byte outside {0,1,2,4,8}":    {1, frame(2, byte(types.KindInt), 0, 3, 1, 2, 3, 4, 5, 6)},
		"width byte of 16":                  {1, frame(2, append([]byte{byte(types.KindInt), 0, 16}, make([]byte, 32)...)...)},
		"integer run without its width":     {1, frame(2, byte(types.KindBool), 0)},
		"string run longer than the frame":  {1, frame(1000, byte(types.KindString), 1, 'a')},
		"mixed run longer than the frame":   {1, frame(1000, tagMixed, byte(types.KindNull))},
		"DECIMAL run of 8n > bytes left":    {1, frame(3, append([]byte{byte(types.KindFloat)}, make([]byte, 23)...)...)},
		"unknown tag":                       {1, frame(1, 0x7e, 0)},
		"ends before the last column":       {2, frame(1, byte(types.KindInt), 2)},
		"ends inside a run":                 {1, frame(2, byte(types.KindString), 1, 'a', 5, 'b')},
		"bytes past the last column":        {1, frame(1, byte(types.KindInt), 2, 0)}, // a one-row run has no width byte
		"NULL run past the row-count bound": {1, frame(maxBatchRows+1, byte(types.KindNull))},
		"constant run past the bound":       {1, frame(maxBatchRows+1, byte(types.KindInt), 2, 0)},
	} {
		cols := make([]wireCol, f.cols)
		p := payloadReader{buf: f.payload}
		if n := p.rowBatch(cols); p.err == nil || n != 0 {
			t.Errorf("%s: accepted (%d rows)", name, n)
		}
		if p.off > len(p.buf) { // the next varint would slice past the end
			t.Errorf("%s: the cursor passed the payload's end (%d > %d)", name, p.off, len(p.buf))
		}
		for _, c := range cols {
			if len(c.ints)+len(c.vals) > len(f.payload) {
				t.Errorf("%s: sized a %d-value buffer from a %d-byte frame", name, len(c.ints)+len(c.vals), len(f.payload))
			}
		}
	}
	// A NULL run and a constant (w = 0) integer run carry no bytes a row: the
	// largest count is legal and free.
	for _, run := range [][]byte{{byte(types.KindNull)}, {byte(types.KindDate), 0x8e, 0x01, 0}} {
		cols := make([]wireCol, 1)
		p := payloadReader{buf: frame(maxBatchRows, run...)}
		if n := p.rowBatch(cols); p.err != nil || n != maxBatchRows || cols[0].ints != nil || cols[0].vals != nil {
			t.Fatalf("run %x of %d rows: n=%d err=%v", run, maxBatchRows, n, p.err)
		}
		tagged := payloadReader{buf: run}
		if got, want := cols[0].value(p.buf, maxBatchRows-1), tagged.value(); got != want {
			t.Fatalf("run %x: last row %+v, want %+v", run, got, want)
		}
	}
}

// appendRowBatch encodes rows, each width values wide, as a RowBatch payload,
// the way the session does.
func appendRowBatch(b []byte, rows []types.Tuple, width int) []byte {
	b = appendUvarint(b, uint64(len(rows)))
	var ints []int64
	for col := 0; col < width; col++ {
		b, ints = appendRun(b, ints, rows, col)
	}
	return b
}

// genRows draws n rows of one column per shape: each kind alone, NULL in
// every row, NULL in some rows, kinds mixed, and integer runs of a constant
// and of a one-byte span.
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
		func() types.Value { return types.Int(math.MinInt64) },
		func() types.Value { return types.Date(-1 - rng.Int63n(256)) },
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
// frame-cut boundaries. A one-row batch is its tagged values, byte for byte;
// a longer integer run takes ≤ 12 + 8n bytes, and any other run no more than
// its tagged values plus one byte.
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

		tagged, mixed := binary.AppendUvarint(nil, uint64(n)), 0
		for j := 0; j < width; j++ {
			run, _ := appendRun(nil, nil, rows, j)
			size, uniform := 1, true
			for _, r := range rows {
				tagged = appendValue(tagged, r[j])
				size += len(appendValue(nil, r[j]))
				uniform = uniform && r[j].K == rows[0][j].K
			}
			switch k := rows[0][j].K; {
			case !uniform:
				mixed++
			case n > 1 && (k == types.KindInt || k == types.KindDate || k == types.KindBool):
				size = 12 + 8*n
			}
			if len(run) > size {
				t.Fatalf("%d rows, column %d: a %d B run, over its %d B bound", n, j, len(run), size)
			}
		}
		if n == 1 && !bytes.Equal(buf, tagged) {
			t.Fatalf("one-row batch %x, want its tagged values %x", buf, tagged)
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
// schema of 1–4 columns: it must never panic, never move its cursor past the
// payload, never size a buffer beyond the payload's length in values — nor any buffer at all for an integer or
// DECIMAL run, which is read in place — and whatever decodes cleanly must
// box, and round-trip through the encoder.
func FuzzRowBatchDecode(f *testing.F) {
	rows := genRows(rand.New(rand.NewSource(1)), 5)
	typed := appendRowBatch(nil, []types.Tuple{rows[0][:3], rows[1][:3]}, 3)
	f.Add(typed, uint8(3))                                                                        // typed runs
	f.Add(appendRowBatch(nil, []types.Tuple{rows[0][7:], rows[1][7:], rows[2][7:]}, 2), uint8(2)) // mixed runs
	f.Add(append(binary.AppendUvarint(nil, maxBatchRows), byte(types.KindNull)), uint8(1))        // NULL run
	f.Add(typed[:len(typed)-2], uint8(3))                                                         // truncated
	f.Add(append(binary.AppendUvarint(nil, 1<<20), typed[1:]...), uint8(3))                       // over-count
	f.Add(append(binary.AppendUvarint(nil, maxBatchRows), byte(types.KindInt), 3, 0), uint8(1))   // constant run
	f.Add(appendRowBatch(nil, []types.Tuple{rows[0][9:], rows[1][9:], rows[2][9:]}, 2), uint8(2)) // w = 0 and 1
	f.Fuzz(func(t *testing.T, data []byte, ncols uint8) {
		cols := make([]wireCol, 1+ncols%4)
		p := payloadReader{buf: data}
		n := p.rowBatch(cols)
		if p.off > len(data) {
			t.Fatalf("the cursor passed the payload's end (%d > %d)", p.off, len(data))
		}
		for _, c := range cols {
			if len(c.ints) > len(data) || len(c.vals) > len(data) {
				t.Fatalf("%d-byte payload sized buffers of %d/%d values", len(data), len(c.ints), len(c.vals))
			}
			switch types.Kind(c.tag) {
			case types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
				if c.ints != nil || c.vals != nil {
					t.Fatalf("a fixed-width run (tag %d) sized a buffer", c.tag)
				}
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

// FuzzIntRun draws integer columns — spans of 0, at the 1-, 2- and 4-byte
// width edges, up to MinInt64…MaxInt64 — and ascending row-id subsets of
// them. The row-id encoder and the tuple encoder must write the same bytes,
// the bytes must decode to the picked values, and every truncation of the
// frame must fail cleanly, its cursor inside the cut.
func FuzzIntRun(f *testing.F) {
	raw := bytes.Repeat([]byte{0x5a, 0xc3, 0x11, 0xe7, 0x02}, 60)
	for _, span := range []uint64{0, 1, 255, 256, 65535, 65536, 1<<32 - 1, 1 << 32, math.MaxUint64} {
		f.Add(int64(-7), span, raw, []byte{0xff, 0x6d}, uint8(0))
	}
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), raw[:40], []byte{}, uint8(1))
	f.Add(int64(math.MaxInt64-100), uint64(300), raw[:80], []byte{0x01}, uint8(2))
	f.Fuzz(func(t *testing.T, base int64, span uint64, raw, pick []byte, kind uint8) {
		k := []types.Kind{types.KindInt, types.KindDate, types.KindBool}[kind%3]
		vec := make([]int64, 2+len(raw)/8)
		for i := range vec {
			var u [8]byte
			copy(u[:], raw[min(8*i, len(raw)):])
			off := binary.LittleEndian.Uint64(u[:])
			if span < math.MaxUint64 {
				off %= span + 1
			}
			vec[i] = base + int64(off)
		}
		// The extremes sit mid-column, so neither end row bounds the span.
		vec[len(vec)/2], vec[(len(vec)-1)/2] = base, base+int64(span)
		var rids []int32
		var rows []types.Tuple
		for i := range vec {
			if len(pick) == 0 || pick[i/8%len(pick)]>>(i%8)&1 == 1 {
				rids = append(rids, int32(i))
				rows = append(rows, types.Tuple{{K: k, I: vec[i]}})
			}
		}
		if len(rids) == 0 {
			return
		}
		byRid, _ := appendIntRun(nil, nil, k, vec, rids)
		byTuple, _ := appendRun(nil, nil, rows, 0)
		if !bytes.Equal(byRid, byTuple) {
			t.Fatalf("row-id run %x, tuple run %x", byRid, byTuple)
		}
		payload := append(binary.AppendUvarint(nil, uint64(len(rids))), byRid...)
		cols := make([]wireCol, 1)
		p := payloadReader{buf: payload}
		if n := p.rowBatch(cols); p.err != nil || n != len(rids) {
			t.Fatalf("decoded %d of %d rows, err %v", n, len(rids), p.err)
		}
		for i, r := range rows {
			if got := cols[0].value(payload, i); got != r[0] {
				t.Fatalf("row %d: %+v, want %+v", i, got, r[0])
			}
		}
		for cut := range payload {
			p := payloadReader{buf: payload[:cut]}
			if n := p.rowBatch(cols); p.err == nil || n != 0 || p.off > cut {
				t.Fatalf("a frame cut at byte %d of %d decoded %d rows, cursor at %d", cut, len(payload), n, p.off)
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

// BenchmarkRowBatchCodec times one stream_wire-shaped frame — 1 024 of 2 048
// table rows, four integer columns (an ascending key, two bounded ids, a
// date) and two DECIMAL ones — encoded from the column vectors as a row-id
// batch is, encoded from tuples as a coalesced batch is, and validated and
// boxed as a client reading every row does. ns/value is per row and column.
// The vector encode walks a 256 Ki-row table a frame at a time, so its reads
// miss the cache as the session's do.
func BenchmarkRowBatchCodec(b *testing.B) {
	const table, span, rows = 1 << 18, 2048, 1024
	rng := rand.New(rand.NewSource(7))
	ints := make([][]int64, 4)
	for c := range ints {
		ints[c] = make([]int64, table)
	}
	floats := [][]float64{make([]float64, table), make([]float64, table)}
	for i := 0; i < table; i++ {
		ints[0][i], ints[1][i], ints[2][i] = int64(i/4+1), 1+rng.Int63n(10_000), 1+rng.Int63n(500)
		ints[3][i] = 8036 + rng.Int63n(2526)
		floats[0][i], floats[1][i] = float64(1+rng.Intn(50)), float64(rng.Intn(10_000_000))/100
	}
	var rids []int32
	for i := int32(0); len(rids) < rows; i += 1 + int32(rng.Intn(2)) {
		rids = append(rids, i)
	}
	tuples := make([]types.Tuple, rows)
	for i, r := range rids {
		tuples[i] = types.Tuple{types.Int(ints[0][r]), types.Int(ints[1][r]), types.Int(ints[2][r]),
			types.Float(floats[0][r]), types.Float(floats[1][r]), types.Date(ints[3][r])}
	}
	const width = 6
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*width), "ns/value")
	}
	var buf []byte
	var scratch []int64
	b.Run("vectors", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := i * span % table
			buf = appendUvarint(buf[:0], rows)
			for c := 0; c < 3; c++ {
				buf, scratch = appendIntRun(buf, scratch, types.KindInt, ints[c][lo:lo+span], rids)
			}
			buf = appendFloatRun(appendFloatRun(buf, floats[0][lo:lo+span], rids), floats[1][lo:lo+span], rids)
			buf, scratch = appendIntRun(buf, scratch, types.KindDate, ints[3][lo:lo+span], rids)
		}
		perValue(b)
	})
	b.Run("tuples", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendUvarint(buf[:0], rows)
			for c := 0; c < width; c++ {
				buf, scratch = appendRun(buf, scratch, tuples, c)
			}
		}
		perValue(b)
	})
	b.Run("decode", func(b *testing.B) {
		payload := appendRowBatch(nil, tuples, width)
		cols := make([]wireCol, width)
		block := make(types.Tuple, width)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := payloadReader{buf: payload}
			n := p.rowBatch(cols)
			for r := 0; r < n; r++ {
				for c := range cols {
					block[c] = cols[c].value(payload, r)
				}
			}
		}
		perValue(b)
	})
}
