// Subquery decorrelation and information passing across blocking
// operators: the paper's headline scenario (TPC-H Q17).
//
// The query's correlated scalar subquery — "lineitems bought in quantities
// below 20% of that part's average" — decorrelates into an aggregation over
// the entire LINEITEM table. Baseline execution buffers every lineitem
// group; with AIP, the moment the (tiny, brand/container-filtered) PART
// side completes, its partkey Bloom filter is injected *below the blocking
// aggregation*, pruning the lineitem stream before it creates groups.
//
//	go run ./examples/subquery
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

	const q17 = `
		SELECT sum(l_extendedprice) / 7.0
		FROM lineitem, part
		WHERE p_partkey = l_partkey
		  AND p_brand = 'Brand#34' AND p_container = 'MED CAN'
		  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem
		       WHERE l_partkey = p_partkey)`

	// Show how the binder decorrelates the block (the subquery becomes a
	// grouped relation joined on partkey — the paper's Figure 1 shape).
	explained, err := eng.Explain(q17)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Decorrelated block structure:")
	fmt.Println(explained)

	fmt.Printf("%-14s %10s %12s %9s %10s\n", "strategy", "time", "state(MB)", "filters", "pruned")
	var answer string
	for _, s := range sip.AllStrategies() {
		res, err := eng.Query(ctx, q17, sip.Options{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10s %12.2f %9d %10d\n",
			s, res.Duration.Round(time.Millisecond),
			float64(res.PeakStateBytes)/(1<<20),
			res.FiltersCreated, res.TuplesPruned)
		if len(res.Rows) > 0 {
			answer = sip.FormatValueRounded(res.Rows[0][0], 6)
		}
	}
	fmt.Printf("\nanswer (identical under every strategy): %s\n", answer)
	fmt.Println("\nNote the state column: the Bloom filter crossing the blocking")
	fmt.Println("aggregation is what shrinks the lineitem hash state — magic sets")
	fmt.Println("can only restrict the subquery, and must duplicate parent work")
	fmt.Println("to do it (its state is the largest of all four).")
}
