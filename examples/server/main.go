// The serving tier: one embedded engine behind a wire-protocol TCP front
// end. A server session streams result rows in batches straight off the
// engine's cursor — a slow client backpressures only its own query — and
// per-tenant quotas gate admission before the engine's own concurrency cap
// and memory governor.
//
// Shown here: starting a server on a loopback listener, dialing it with the
// package's client, running an ad-hoc query and a prepared statement over
// the wire, reading the execution summary a Done frame carries, and
// sampling the /metrics counters. Production setups run `sipserver` and
// `sipquery -connect` instead of embedding both ends in one process.
//
//	go run ./examples/server
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	sip "repro"
	"repro/internal/server"
)

func main() {
	ctx := context.Background()

	// An engine configured for serving: bounded concurrency, a shared
	// memory pool sliced into per-query grants, and a slow-query log the
	// /stats endpoint exposes.
	eng := sip.NewEngineWithConfig(
		sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.02}),
		sip.EngineConfig{
			MaxConcurrentQueries: 8,
			MemBudget:            64 << 20,
			SlowQueryThreshold:   time.Millisecond,
		})

	srv, err := server.New(server.Config{
		Engine:      eng,
		BaseOptions: sip.Options{Strategy: sip.CostBased},
		TenantQuota: 4, // each tenant runs at most 4 queries at once
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)

	// 1. Dial and handshake. The tenant names the quota bucket; the
	// memory budget and failure mode travel with the session.
	c, err := server.Dial(l.Addr().String(), server.DialConfig{Tenant: "demo"})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 2. Ad-hoc SQL over the wire. Rows arrive in batches as the engine
	// produces them; nothing is materialized server-side.
	rows, err := c.Query(ctx, `
		SELECT n_name, count(*)
		FROM supplier, nation
		WHERE s_nationkey = n_nationkey
		GROUP BY n_name`)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if n < 3 {
			r := rows.Row()
			fmt.Printf("  %-12s %s\n", r[0].String(), r[1].String())
		}
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	sum := rows.Summary()
	fmt.Printf("ad-hoc: %d rows (showed 3); server ran it in %v, %d tuples pruned\n\n",
		n, rows.Duration().Round(time.Microsecond), sum.TuplesPruned)

	// 3. A prepared statement: compiled once server-side, executed per
	// binding. The engine's plan cache parameterizes ad-hoc literals too,
	// but an explicit statement also skips the per-call cache lookup.
	stmt, err := c.Prepare(`
		SELECT count(*) FROM supplier, nation
		WHERE s_nationkey = n_nationkey AND s_acctbal > ?`)
	if err != nil {
		log.Fatal(err)
	}
	for _, bal := range []int64{0, 5000, 9000} {
		rs, err := stmt.Query(ctx, sip.Int(bal))
		if err != nil {
			log.Fatal(err)
		}
		for rs.Next() {
			fmt.Printf("prepared: suppliers with acctbal > %-5d = %s\n", bal, rs.Row()[0].String())
		}
		if err := rs.Err(); err != nil {
			log.Fatal(err)
		}
	}
	stmt.Close()

	// 4. The observability surface. srv.MetricsHandler() serves these same
	// counters as flat text on GET /metrics and a JSON snapshot (with the
	// slow-query log) on GET /stats — mount it on any mux.
	for _, name := range []string{"sip_queries_ok_total", "sip_rows_sent_total", "sip_plan_cache_hits_total"} {
		fmt.Printf("metric %-26s %d\n", name, metricValue(srv, name))
	}

	// 5. Graceful shutdown: in-flight streams finish, then sessions close.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserver drained cleanly")
}

// metricValue samples one named counter from the server's metrics set.
func metricValue(srv *server.Server, name string) int64 {
	switch name {
	case "sip_queries_ok_total":
		return srv.Metrics().QueriesOK.Load()
	case "sip_rows_sent_total":
		return srv.Metrics().RowsSent.Load()
	case "sip_plan_cache_hits_total":
		return srv.Engine().PlanCacheStats().Hits
	}
	return 0
}
