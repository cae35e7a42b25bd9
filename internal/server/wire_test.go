package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"testing"

	sip "repro"
	tables "repro/internal/catalog" // catalog() is this package's shared test catalog
	"repro/internal/types"
	"repro/internal/workload"
)

// rowsHash is an order-independent digest of a result: the row count and the
// sum of the rows' hashes (floats rounded as the strategies' differential
// tests round them: parallel plans sum in nondeterministic order).
func rowsHash(rows []sip.Row) (n int, sum uint64) {
	for _, r := range rows {
		h := fnv.New64a()
		for _, v := range r {
			fmt.Fprintf(h, "%d:%s|", v.K, sip.FormatValueRounded(v, 9))
		}
		sum += h.Sum64()
	}
	return len(rows), sum
}

// TestWireMatchesInProcess: the stream query (a row-id root) and Q1A–Q5A
// under every strategy return over the wire the rows they return in process.
func TestWireMatchesInProcess(t *testing.T) {
	eng := sip.NewEngine(catalog())
	queries := map[string]string{
		"stream": "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_receiptdate FROM lineitem WHERE l_quantity < 24.5",
	}
	for _, id := range []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"} {
		spec, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		queries[id] = spec.SQL(catalog())
	}
	for _, strat := range sip.AllStrategies() {
		_, addr := startServer(t, Config{Engine: eng, BaseOptions: sip.Options{Strategy: strat}})
		c := dialT(t, addr, DialConfig{})
		for id, sql := range queries {
			want, err := eng.Query(context.Background(), sql, sip.Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s %s in process: %v", id, strat, err)
			}
			rows, err := c.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s %s: %v", id, strat, err)
			}
			gn, gh := rowsHash(drainAll(t, rows))
			if wn, wh := rowsHash(want.Rows); gn != wn || gh != wh {
				t.Fatalf("%s %s: wire (%d rows, %x) differs from in process (%d rows, %x)", id, strat, gn, gh, wn, wh)
			}
			if gn == 0 && (id == "stream" || id == "Q2A") {
				t.Fatalf("%s %s: no rows — the comparison is vacuous", id, strat)
			}
		}
	}
}

// framingCatalog holds tables sized around the frame cuts — t<n> of n narrow
// rows, wide of 300 rows × 1 KiB strings (the byte cut), big of 5 000 rows —
// each with an INT, a DECIMAL, a STRING, a NULL-holding, an all-NULL and a
// mixed column.
func framingCatalog() *sip.Catalog {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "f", Kind: types.KindFloat},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
		types.Column{Table: "t", Name: "n", Kind: types.KindInt},
		types.Column{Table: "t", Name: "z", Kind: types.KindInt},
		types.Column{Table: "t", Name: "m", Kind: types.KindInt})
	mk := func(name string, n, strLen int) *tables.Table {
		rows := make([]types.Tuple, n)
		for i := range rows {
			nullable, mixed := types.Int(int64(i)), types.Int(int64(i))
			if i%5 == 0 {
				nullable = types.Null()
			}
			if i%3 == 0 {
				mixed = types.Str("m")
			}
			rows[i] = types.Tuple{types.Int(int64(i) - 3), types.Float(float64(i) / 4),
				types.Str(strings.Repeat("x", strLen) + fmt.Sprint(i)), nullable, types.Null(), mixed}
		}
		return &tables.Table{Name: name, Schema: sch, Rows: rows}
	}
	cat := tables.New()
	for _, n := range []int{0, 1, 127, 128, 256, 257, 1025} {
		cat.Add(mk(fmt.Sprint("t", n), n, 2))
	}
	cat.Add(mk("wide", 300, 1<<10))
	cat.Add(mk("big", 5000, 2))
	return cat
}

// TestWireFraming: results of 0 to 1 025 rows, results the 64 KiB cut splits
// and row-id results with string, NULL-holding and mixed columns all arrive as
// sent, in the frames the cut rules predict; and rows kept across Next, Close
// and the connection's next query keep their values. A plain column projection
// is a row-id root; a computed column (a + 0) keeps the Project, whose tuple
// batches coalesce.
func TestWireFraming(t *testing.T) {
	eng := sip.NewEngine(framingCatalog())
	srv, addr := startServer(t, Config{Engine: eng})
	c := dialT(t, addr, DialConfig{})
	for _, q := range []struct {
		sql    string
		frames int64
	}{
		// Row-id batches of ≤ 1 024 rows, each cut where the rows' bound
		// (valueBound, ≈ 71 B a row here) reaches 64 KiB.
		{"SELECT a, f, s, n, z, m FROM t0", 0},
		{"SELECT a, f, s, n, z, m FROM t1", 1},
		{"SELECT a, f, s, n, z, m FROM t257", 1},
		{"SELECT a, f, s, n, z, m FROM t1025", 3},              // 925 + 99 rows, then the 1 025th row's own batch
		{"SELECT s, a FROM wide", 5},                           // 300 rows of ≈ 1 050 B: 63 to a 64 KiB frame
		{"SELECT m, z, n, s, f, a FROM big WHERE a < 4000", 8}, // 4 batches of ≤ 1 024 survivors, each cut in two
		// Tuple batches, coalesced into frames of frameRows rows.
		{"SELECT a + 0, f, s, n, z, m FROM t0", 0},
		{"SELECT a + 0, f, s, n, z, m FROM t1", 1},
		{"SELECT a + 0, f, s, n, z, m FROM t127", 1},
		{"SELECT a + 0, f, s, n, z, m FROM t128", 1},
		{"SELECT a + 0, f, s, n, z, m FROM t256", 1},
		{"SELECT a + 0, f, s, n, z, m FROM t257", 2},
		{"SELECT a + 0, f, s, n, z, m FROM t1025", 5},
		{"SELECT s, a + 0 FROM wide", 5}, // 63 rows of ≈ 1 050 B to a frame, as above
	} {
		want, err := eng.Query(context.Background(), q.sql, sip.Options{})
		if err != nil {
			t.Fatalf("%s in process: %v", q.sql, err)
		}
		before := srv.Metrics().BatchesSent.Load()
		rows, err := c.Query(context.Background(), q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		var got, kept []sip.Row
		var keptWant []string
		for rows.Next() {
			row := rows.Row()
			got = append(got, row)
			if len(got)%100 == 1 {
				kept = append(kept, row)
				keptWant = append(keptWant, row.Clone().String())
			}
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		rows.Close()
		if frames := srv.Metrics().BatchesSent.Load() - before; frames != q.frames {
			t.Errorf("%s: %d frames, want %d", q.sql, frames, q.frames)
		}
		gn, gh := rowsHash(got)
		if wn, wh := rowsHash(want.Rows); gn != wn || gh != wh {
			t.Fatalf("%s: wire (%d rows, %x) differs from in process (%d rows, %x)", q.sql, gn, gh, wn, wh)
		}
		// The next exchange overwrites the connection's frame buffer.
		again, err := c.Query(context.Background(), "SELECT s, s, s FROM t257")
		if err != nil {
			t.Fatal(err)
		}
		drainAll(t, again)
		for i, row := range kept {
			if g := row.String(); g != keptWant[i] {
				t.Fatalf("%s: kept row %d changed: %s, was %s", q.sql, i, g, keptWant[i])
			}
		}
	}
}

// teeConn copies what the client reads into seen, so a test can split the
// stream into frames afterwards.
type teeConn struct {
	net.Conn
	seen *bytes.Buffer
}

func (c teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.seen.Write(p[:n])
	return n, err
}

// TestFrameByteCut pins the byte cut of coalesced tuple frames: streamRows
// bounds a pending row at 11 B a value plus its string bytes, so every
// RowBatch frame of 1 000 rows of long INTs stays within frameBytes plus one
// row's bound, and each frame but the last carries the rows that reach
// frameBytes — fewer than frameRows once a row is wider than 23 columns. The
// first column is computed (c0 + 0), so the Project stays and emits tuples.
func TestFrameByteCut(t *testing.T) {
	for _, width := range []int{23, 24, 30} {
		names := make([]string, width)
		cols := make([]types.Column, width)
		for i := range cols {
			names[i] = fmt.Sprint("c", i)
			cols[i] = types.Column{Table: "w", Name: names[i], Kind: types.KindInt}
		}
		rows := make([]types.Tuple, 1000)
		for i := range rows {
			rows[i] = make(types.Tuple, width)
			for c := range rows[i] {
				rows[i][c] = types.Int(int64(i*width+c) << 40)
			}
		}
		cat := tables.New()
		cat.Add(&tables.Table{Name: "w", Schema: types.NewSchema(cols...), Rows: rows})
		_, addr := startServer(t, Config{Engine: sip.NewEngine(cat)})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		var seen bytes.Buffer
		c, err := NewClient(teeConn{conn, &seen}, DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		rs, err := c.Query(context.Background(), "SELECT c0 + 0, "+strings.Join(names[1:], ", ")+" FROM w")
		if err != nil {
			t.Fatal(err)
		}
		if n := len(drainAll(t, rs)); n != len(rows) {
			t.Fatalf("width %d: %d rows, want %d", width, n, len(rows))
		}
		bound := 11 * width
		want := min(frameRows, (frameBytes+bound-1)/bound)
		if (want < frameRows) != (width > 23) {
			t.Fatalf("width %d: %d rows a frame — the 23-column threshold moved", width, want)
		}
		var perFrame []int
		for {
			typ, payload, err := readFrame(&seen, DefaultMaxFrame)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if typ != frameRowBatch {
				continue
			}
			if size := frameHeaderLen + len(payload); size > frameBytes+bound {
				t.Fatalf("width %d: a %d B frame, over frameBytes + one row's bound (%d B)", width, size, frameBytes+bound)
			}
			n, _ := binary.Uvarint(payload)
			perFrame = append(perFrame, int(n))
		}
		if len(perFrame) != (len(rows)+want-1)/want {
			t.Fatalf("width %d: frames of %v rows, want %d a frame", width, perFrame, want)
		}
		for _, n := range perFrame[:len(perFrame)-1] {
			if n != want {
				t.Fatalf("width %d: frames of %v rows, want %d a frame", width, perFrame, want)
			}
		}
	}
}

// TestRowIDFrameByteCut: a row-id result with a string column is cut by the
// tuple path's byte bound, so a client whose frame limit is 256 KiB reads 5 000
// rows of 1 KiB strings (1 024 of them, 1 MiB, in one uncut batch) in frames of
// at most frameBytes plus one row's bound. An all-fixed-width row-id batch is
// not cut: one frame per ≤ 1 024 rows.
func TestRowIDFrameByteCut(t *testing.T) {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "s", Kind: types.KindString})
	rows := make([]types.Tuple, 5000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("%01024d", i))}
	}
	cat := tables.New()
	cat.Add(&tables.Table{Name: "t", Schema: sch, Rows: rows})
	srv, addr := startServer(t, Config{Engine: sip.NewEngine(cat)})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var seen bytes.Buffer
	c, err := NewClient(teeConn{conn, &seen}, DialConfig{MaxFrameBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, q := range []struct {
		sql    string
		frames int64
	}{
		{"SELECT a, s FROM t", 83}, // 1 046 B a row: 63 rows a frame, 17 frames a 1 024-row batch, 15 for the last 904 rows
		{"SELECT a FROM t", 5},
	} {
		seen.Reset()
		before := srv.Metrics().BatchesSent.Load()
		rs, err := c.Query(context.Background(), q.sql)
		if err != nil {
			t.Fatal(err)
		}
		got := drainAll(t, rs)
		if len(got) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", q.sql, len(got), len(rows))
		}
		for i, row := range got {
			if row[0].I != int64(i) || len(row) == 2 && row[1].S != rows[i][1].S {
				t.Fatalf("%s: row %d is %v", q.sql, i, row)
			}
		}
		if frames := srv.Metrics().BatchesSent.Load() - before; frames != q.frames {
			t.Errorf("%s: %d frames, want %d", q.sql, frames, q.frames)
		}
		bound := valueBound(rows[len(rows)-1][0]) + valueBound(rows[len(rows)-1][1])
		for {
			typ, payload, err := readFrame(&seen, DefaultMaxFrame)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if size := frameHeaderLen + len(payload); typ == frameRowBatch && size > frameBytes+bound {
				t.Fatalf("%s: a %d B frame, over frameBytes + one row's bound (%d B)", q.sql, size, frameBytes+bound)
			}
		}
	}
}

// TestCountLoopAllocs: a warm cursor that only counts rows allocates per
// query (the cursor, the schema, the summary), never per row or per frame.
func TestCountLoopAllocs(t *testing.T) {
	const frames, perFrame = 64, 1000
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "f", Kind: types.KindFloat},
		types.Column{Table: "t", Name: "d", Kind: types.KindDate})
	rows := make([]types.Tuple, perFrame)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i * 977)), types.Float(float64(i) / 8), types.Date(int64(9000 + i))}
	}
	var stream bytes.Buffer
	writeFrame(&stream, frameSchema, appendSchema(nil, sch))
	for i := 0; i < frames; i++ {
		writeFrame(&stream, frameRowBatch, appendRowBatch(nil, rows, 3))
	}
	writeFrame(&stream, frameDone, appendSummary(nil, &Summary{Rows: frames * perFrame}))

	src := bytes.NewReader(nil)
	c := &Client{br: bufio.NewReaderSize(src, 32<<10), maxFrame: DefaultMaxFrame}
	count := func() {
		src.Reset(stream.Bytes())
		c.br.Reset(src)
		c.busy = true
		cur, err := c.openStream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		if cur.Err() != nil || n != frames*perFrame {
			t.Fatalf("%d rows, err %v", n, cur.Err())
		}
	}
	count() // warm: the frame buffer and the column runs grow once
	if allocs := testing.AllocsPerRun(5, count); allocs > 16 {
		t.Fatalf("counting %d frames allocated %.0f objects", frames, allocs)
	}
}

// TestV1HelloRefused: versions 1 (row-at-a-time RowBatch payloads), 2 (a
// scheduler string in the Hello, which a later server would read as the
// memory budget) and 3 (varint integer runs, which a v3 client would misread
// as the fixed-width runs of version 4) are gone from both ends; a peer that
// offers at most any of them gets the "version" error frame and a closed
// connection, never a stream.
func TestV1HelloRefused(t *testing.T) {
	srv, addr := startServer(t, Config{})
	for _, version := range []uint64{1, 2, 3} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := appendUvarint([]byte(protoMagic), version)
		hello = appendString(hello, "tenant")
		if version < 3 {
			hello = appendString(hello, "chan") // the scheduler
		}
		hello = append(appendVarint(hello, 0), 0) // memory budget, failure mode
		if err := writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := readFrame(conn, DefaultMaxFrame)
		if err != nil || typ != frameError {
			t.Fatalf("v%d: frame 0x%02x, err %v; want an Error frame", version, typ, err)
		}
		var werr *WireError
		if !errors.As(decodeError(payload), &werr) || werr.Code != errCodeVersion {
			t.Fatalf("v%d: got %v, want a %q error", version, decodeError(payload), errCodeVersion)
		}
		if _, _, err := readFrame(conn, DefaultMaxFrame); err == nil {
			t.Fatalf("v%d: the session stayed open after refusing the handshake", version)
		}
	}
	if n := srv.Metrics().QueriesStarted.Load(); n != 0 {
		t.Fatalf("%d queries started", n)
	}
}
