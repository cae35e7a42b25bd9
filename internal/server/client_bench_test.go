package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	sip "repro"
)

// The client benchmarks run the end-to-end workloads' two wire shapes over
// loopback at the benchmark's scale factor. This file uses only what the
// package exported before column-run frames, so the same file measures the
// parent commit.
var (
	benchCatOnce sync.Once
	benchCat     *sip.Catalog
)

// benchClient serves an SF 0.05 catalog on a loopback listener and dials it.
func benchClient(b *testing.B) *Client {
	b.Helper()
	benchCatOnce.Do(func() { benchCat = sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.05}) })
	srv, err := New(Config{Engine: sip.NewEngine(benchCat)})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	c, err := Dial(l.Addr().String(), DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
		<-served
	})
	return c
}

var benchSink int

// BenchmarkClientStream is stream_wire's query, ≈ 144 k rows × 6 columns a
// call. The end-to-end workload's timed loop never calls Row, which "count"
// reproduces; "row" boxes every row, the consumer that looks at its result.
func BenchmarkClientStream(b *testing.B) {
	const sql = "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_receiptdate FROM lineitem WHERE l_quantity < 24.5"
	for _, boxed := range []bool{false, true} {
		name := "count"
		if boxed {
			name = "row"
		}
		b.Run(name, func(b *testing.B) {
			c := benchClient(b)
			run := func() int {
				rows, err := c.Query(context.Background(), sql)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for rows.Next() {
					if boxed {
						n += len(rows.Row())
					} else {
						n++
					}
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
				return n
			}
			run() // plan cache, column vectors, buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += run()
			}
		})
	}
}

// BenchmarkClientPoint is point_wire's query: a one-row nation lookup with a
// fresh literal, where everything per query and per frame is the whole cost
// (a row block sized for a long frame halves it).
func BenchmarkClientPoint(b *testing.B) {
	c := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := c.Query(context.Background(), fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", i%25))
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
			benchSink += len(rows.Row())
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
	}
}
