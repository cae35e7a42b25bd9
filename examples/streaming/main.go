// Streaming execution: the engine's cursor API. Results are consumed
// batch-at-a-time straight from the root operator's bounded pipeline edge
// — a slow consumer stalls the producers (backpressure) instead of forcing
// the engine to materialize the result — and a context deadline cancels
// the whole operator tree mid-flight, reclaiming every goroutine.
//
// Also shown: prepared statements (`?` placeholders), which pay
// parse/bind/optimize once and then execute the compiled plan per call.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	sip "repro"
)

func main() {
	ctx := context.Background()
	eng := sip.NewEngine(sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.02}))

	// 1. Stream a join result through the cursor: rows arrive as the
	// pipelined hash joins produce them, not after the query finishes.
	const q = `
		SELECT n_name, s_name, s_acctbal
		FROM supplier, nation
		WHERE s_nationkey = n_nationkey AND s_acctbal > 9000`
	rows, err := eng.QueryStream(ctx, q, sip.Options{Strategy: sip.FeedForward})
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if n < 5 {
			r := rows.Row()
			fmt.Printf("  %-16s %-20s %8s\n", r[0].S, r[1].S, r[2])
		}
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	res := rows.Result() // stats finalize at cursor exhaustion
	fmt.Printf("streamed %d rows in %v (state peak %.2f MB)\n\n",
		n, res.Duration.Round(time.Millisecond), float64(res.PeakStateBytes)/(1<<20))

	// 2. The iterator adapter: range over rows, Close handled for you.
	rows, err = eng.QueryStream(ctx, `SELECT r_name FROM region`, sip.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("regions:")
	for row, err := range rows.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", row[0].S)
	}
	fmt.Println()

	// 3. A deadline cancels mid-flight: the delayed lineitem scan below
	// (the §VI-B model: 100ms before its first tuple, then 5ms every 1000)
	// would take seconds, but the 50ms budget cuts it off; every operator
	// goroutine is reclaimed and the cursor reports
	// context.DeadlineExceeded.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	rows, err = eng.QueryStream(short, `SELECT count(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey`,
		sip.Options{DelayedTables: []string{"lineitem"}})
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
	}
	if errors.Is(rows.Err(), context.DeadlineExceeded) {
		fmt.Println("deadline query: cancelled cleanly after 50ms, as intended")
	} else {
		fmt.Printf("deadline query: unexpected outcome err=%v\n", rows.Err())
	}
	fmt.Println()

	// 4. Prepared statement: parse/bind/optimize once, execute many times
	// with different arguments. The vectorized constant-comparison kernels
	// are reused because the argument lowers to a typed constant.
	stmt, err := eng.Prepare(ctx, `SELECT n_name FROM nation WHERE n_regionkey = ?`)
	if err != nil {
		log.Fatal(err)
	}
	for region := int64(0); region < 3; region++ {
		res, err := stmt.Query(ctx, sip.Int(region))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("region %d: %d nations\n", region, len(res.Rows))
	}

	// 5. The ad-hoc path gets prepare-once behavior automatically from the
	// engine's plan cache.
	for i := 0; i < 3; i++ {
		if _, err := eng.Query(ctx, `SELECT count(*) FROM supplier`, sip.Options{}); err != nil {
			log.Fatal(err)
		}
	}
	cs := eng.PlanCacheStats()
	fmt.Printf("plan cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
}
