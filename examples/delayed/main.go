// Slow sources: the paper's §VI-B experiment. PARTSUPP is delayed by
// 100 ms and rate-limited (5 ms per 1000 tuples), as when a remote web
// source stalls. Running-time differences between strategies shrink — the
// pipeline is waiting on I/O — but the state savings persist, which is
// what matters when many queries share the engine's memory.
//
//	go run ./examples/delayed
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
	eng := sip.NewEngine(sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.02}))

	const q = `
		SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr
		FROM part, supplier, partsupp, nation, region
		WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
		  AND p_size = 1 AND p_type LIKE '%TIN'
		  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  AND r_name = 'AFRICA'
		  AND ps_supplycost = (SELECT min(ps_supplycost)
		       FROM partsupp, supplier, nation, region
		       WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey
		         AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		         AND r_name = 'AFRICA')`

	for _, delayed := range []bool{false, true} {
		label := "fast sources"
		var opts sip.Options
		if delayed {
			label = "PARTSUPP delayed 100ms + 5ms/1000 tuples (the paper's §VI-B model)"
			opts.DelayedTables = []string{"partsupp"}
		}
		fmt.Printf("— %s —\n", label)
		fmt.Printf("%-14s %10s %12s %9s %9s\n", "strategy", "time", "state(MB)", "filters", "pruned")
		for _, s := range sip.AllStrategies() {
			opts.Strategy = s
			res, err := eng.Query(ctx, q, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %10s %12.2f %9d %9d\n",
				s, res.Duration.Round(time.Millisecond),
				float64(res.PeakStateBytes)/(1<<20),
				res.FiltersCreated, res.TuplesPruned)
		}
		fmt.Println()
	}
}
