// Command sipserver serves the engine over the wire protocol: one embedded
// engine, many client sessions, streamed results, per-tenant admission
// quotas, and an HTTP metrics endpoint that also serves the Go runtime
// profiles (go tool pprof http://host:7879/debug/pprof/profile).
//
// Usage:
//
//	sipserver -addr :7878 -metrics-addr :7879
//	sipserver -sf 0.05 -max-queries 16 -engine-mem-budget 268435456
//	sipserver -tenant-quota 4 -quota batch=1,etl=2
//	sipserver -slow-query 250ms -plan-cache 256
//
// Clients connect with `sipquery -connect host:port` or the server.Client
// API; both ends must speak wire-protocol version 2 (column-run RowBatch
// frames; an older client gets a "version" error). Result framing has no
// flag: a scan's row-id batch is one frame, other results go out in frames
// of 256 rows, see internal/server. SIGINT drains: the listener closes, in-flight result streams finish,
// and only after -drain-timeout are remaining queries force-canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	sip "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7878", "wire-protocol listen address")
		metricsAddr = flag.String("metrics-addr", "", "HTTP /metrics, /stats and /debug/pprof/ listen address (empty = disabled)")

		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		skew     = flag.Bool("skew", false, "use the Zipf z=0.5 skewed data set")
		strategy = flag.String("strategy", "Cost-based", "base strategy for all sessions: Baseline | Magic | Feed-forward | Cost-based")

		maxQueries = flag.Int("max-queries", 0, "engine-wide cap on concurrently executing queries (0 = unlimited)")
		engineMem  = flag.Int64("engine-mem-budget", 0, "engine-wide memory pool in bytes, granted per query at admission (0 = ungoverned)")
		planCache  = flag.Int("plan-cache", 0, "plan cache size in entries (0 = default, negative disables)")
		slowQuery  = flag.Duration("slow-query", 0, "log queries at or above this wall time to the /stats slow-query log (0 = off)")

		tenantQuota = flag.String("quota", "", "per-tenant concurrent-query caps, e.g. batch=1,etl=2")
		defQuota    = flag.Int("tenant-quota", 0, "default per-tenant concurrent-query cap (0 = unlimited)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries before force-canceling them")
	)
	flag.Parse()

	strat, err := sip.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	quotas := map[string]int{}
	if *tenantQuota != "" {
		for _, pair := range strings.Split(*tenantQuota, ",") {
			name, limit, ok := strings.Cut(strings.TrimSpace(pair), "=")
			var n int
			if ok {
				var err error
				n, err = strconv.Atoi(limit)
				ok = err == nil && n > 0
			}
			if !ok {
				fatal(fmt.Errorf("bad -quota entry %q (want tenant=limit)", pair))
			}
			quotas[name] = n
		}
	}

	cfg := sip.DataConfig{ScaleFactor: *sf}
	if *skew {
		cfg.Skew = true
		cfg.Z = 0.5
	}
	log.Printf("sipserver: generating TPC-H data at sf=%g", *sf)
	eng := sip.NewEngineWithConfig(sip.GenerateTPCH(cfg), sip.EngineConfig{
		PlanCacheSize:        *planCache,
		MaxConcurrentQueries: *maxQueries,
		MemBudget:            *engineMem,
		SlowQueryThreshold:   *slowQuery,
	})

	srv, err := server.New(server.Config{
		Engine:      eng,
		BaseOptions: sip.Options{Strategy: strat},
		TenantQuota: *defQuota,
		Quotas:      quotas,
		Logf:        log.Printf,
	})
	if err != nil {
		fatal(err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Printf("sipserver: serving on %s", l.Addr())

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		log.Printf("sipserver: metrics on http://%s/metrics", ml.Addr())
		go func() {
			if err := http.Serve(ml, srv.MetricsHandler()); err != nil {
				log.Printf("sipserver: metrics server stopped: %v", err)
			}
		}()
	}

	// SIGINT starts a drain; a second SIGINT (or -drain-timeout) forces it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	go func() {
		<-ctx.Done()
		stop() // restore default handling: a second ^C kills the process
		log.Printf("sipserver: draining (in-flight queries finish, %v limit)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("sipserver: forced shutdown: %v", err)
		}
	}()

	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
	log.Printf("sipserver: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sipserver:", err)
	os.Exit(1)
}
