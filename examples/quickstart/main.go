// Quickstart: generate data, run one query under every strategy, compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sip "repro"
)

func main() {
	ctx := context.Background()

	// 1. Generate a TPC-H-shaped catalog (SF 0.02 ≈ 20 MB).
	cat := sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.02})
	eng := sip.NewEngine(cat)

	// 2. A multi-join query with a selective dimension side: the kind of
	// plan where a completed subexpression's key set can prune the big
	// fact-table inputs (the paper's §VI-C join experiments).
	const q = `
		SELECT n_name, sum(l_extendedprice * (1 - l_discount))
		FROM orders, lineitem, supplier, nation, region
		WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  AND r_name = 'EUROPE'
		  AND o_orderdate >= '1995-01-01' AND o_orderdate < '1996-01-01'
		GROUP BY n_name`

	// 3. Run it under each strategy and compare.
	fmt.Printf("%-14s %10s %12s %9s %9s\n", "strategy", "time", "state(MB)", "filters", "pruned")
	for _, s := range sip.AllStrategies() {
		res, err := eng.Query(ctx, q, sip.Options{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10s %12.2f %9d %9d\n",
			s, res.Duration.Round(time.Millisecond),
			float64(res.PeakStateBytes)/(1<<20),
			res.FiltersCreated, res.TuplesPruned)
	}

	// 4. Show the actual result rows (same under every strategy).
	res, err := eng.Query(ctx, q, sip.Options{Strategy: sip.FeedForward})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(sip.FormatRows(res.Schema, res.Rows, 10))
}
