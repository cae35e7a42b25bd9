package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	sip "repro"
	"repro/internal/server"
)

// The server benchmark measures the wire-protocol serving tier end to end —
// TCP framing, session dispatch, engine execution, row-batch encoding — on
// the point query the stmt microbench uses, at 1, 64, and 512 concurrent
// sessions. Three paths per level:
//
//   - adhoc: Query frames with a distinct literal per call against a server
//     whose engine has plan caching disabled — every call pays parse + bind
//     + optimize on top of the wire round trip.
//   - cached: the same distinct-literal Query frames against the default
//     server — the plan cache's literal parameterization folds them onto
//     one compiled template.
//   - prepared: Prepare once per session, then Execute frames with a bound
//     argument — the wire analog of Stmt.Query.
//
// Each cell records queries/sec plus p50/p99 client-observed latency and the
// rep spread. The section lands on the latest BENCH_joins.json entry
// ("server_bench"); `make benchdiff` gates it PR-over-PR (same machine only,
// spread-widened tolerance) and enforces the intra-entry floor that prepared
// execution beats cache-disabled ad-hoc by ≥1.25x at 64 sessions.
//
// Why 1.25x when the in-process stmt microbench shows 3x+: over TCP the
// ratio is (plan + exec + wire) / (exec + wire), and on this single-core
// container the four-syscall round trip costs ~15us — more than the ~12us
// planning tax the prepared path saves. Measured runs land at 1.5-1.9x;
// no query shape does better (join shapes raise exec cost as fast as plan
// cost). The floor is set below the observed minimum so ambient noise on a
// shared runner cannot flag a phantom regression, while a change that
// breaks statement reuse over the wire (ratio -> 1.0) still fails.

// serverBenchSF pins the data scale; the point query isolates per-call and
// per-frame overhead, not scan throughput.
const serverBenchSF = 0.01

// serverBenchTotal is the target number of queries per path per level,
// split across the sessions (at least serverBenchMinPer each).
const (
	serverBenchTotal  = 3072
	serverBenchMinPer = 6
)

var serverBenchSessions = []int{1, 64, 512}

type serverBenchCell struct {
	Sessions int `json:"sessions"`

	AdhocQPS       float64 `json:"adhoc_queries_per_sec"`
	AdhocP50Micros int64   `json:"adhoc_p50_micros"`
	AdhocP99Micros int64   `json:"adhoc_p99_micros"`

	CachedQPS       float64 `json:"cached_queries_per_sec"`
	CachedP50Micros int64   `json:"cached_p50_micros"`
	CachedP99Micros int64   `json:"cached_p99_micros"`

	PreparedQPS       float64 `json:"prepared_queries_per_sec"`
	PreparedP50Micros int64   `json:"prepared_p50_micros"`
	PreparedP99Micros int64   `json:"prepared_p99_micros"`

	SpeedupPrepared float64 `json:"speedup_prepared_vs_adhoc"`
	SpeedupCached   float64 `json:"speedup_cached_vs_adhoc"`

	// RepSpread is the worst (slowest-fastest)/median rep-time spread across
	// the cell's three measurements; benchdiff widens its cross-entry
	// tolerance to it, same as the join cells.
	RepSpread float64 `json:"rep_spread"`
}

// benchServer is one listening server plus its address.
type benchServer struct {
	srv  *server.Server
	addr string
}

func startBenchServer(eng *sip.Engine) (*benchServer, error) {
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	return &benchServer{srv: srv, addr: l.Addr().String()}, nil
}

func (b *benchServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.srv.Shutdown(ctx)
}

// pointSQL is the benchmark query; i selects the key so the adhoc/cached
// paths see a distinct literal per call.
func pointSQL(i int) string {
	return fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", i%25)
}

// runPoint executes one query on the client — ad-hoc text or the session's
// prepared statement — and drains it.
func runPoint(ctx context.Context, c *server.Client, stmt *server.Stmt, i int) error {
	var rows *server.Rows
	var err error
	if stmt != nil {
		rows, err = stmt.Query(ctx, sip.Int(int64(i%25)))
	} else {
		rows, err = c.Query(ctx, pointSQL(i))
	}
	if err != nil {
		return err
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("serverbench: point query returned %d rows, want 1", n)
	}
	return nil
}

// measureServer runs perSession queries on each of `sessions` concurrent
// client connections, reps times, and returns the median-rep queries/sec
// with that rep's p50/p99 latency and the rep spread. prepare selects the
// Execute path.
func measureServer(addr string, sessions, perSession, reps int, prepare bool) (qps float64, p50, p99 int64, spread float64, err error) {
	ctx := context.Background()
	clients := make([]*server.Client, sessions)
	stmts := make([]*server.Stmt, sessions)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range clients {
		c, derr := server.Dial(addr, server.DialConfig{Tenant: "bench"})
		if derr != nil {
			return 0, 0, 0, 0, derr
		}
		clients[i] = c
		if prepare {
			s, perr := c.Prepare("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = ?")
			if perr != nil {
				return 0, 0, 0, 0, perr
			}
			stmts[i] = s
		}
		// Warm-up: the first call pays one-time costs (cache fill, pools).
		if werr := runPoint(ctx, c, stmts[i], i); werr != nil {
			return 0, 0, 0, 0, werr
		}
	}

	type repResult struct {
		wall time.Duration
		lats []time.Duration
	}
	repsRun := make([]repResult, reps)
	for r := 0; r < reps; r++ {
		runtime.GC()
		perClient := make([][]time.Duration, sessions)
		errs := make(chan error, sessions)
		start := time.Now()
		for ci := range clients {
			go func(ci int) {
				lats := make([]time.Duration, 0, perSession)
				var cerr error
				for i := 0; i < perSession; i++ {
					t0 := time.Now()
					if cerr = runPoint(ctx, clients[ci], stmts[ci], ci*perSession+i); cerr != nil {
						break
					}
					lats = append(lats, time.Since(t0))
				}
				perClient[ci] = lats
				errs <- cerr
			}(ci)
		}
		for range clients {
			if cerr := <-errs; cerr != nil {
				return 0, 0, 0, 0, cerr
			}
		}
		wall := time.Since(start)
		var all []time.Duration
		for _, lats := range perClient {
			all = append(all, lats...)
		}
		repsRun[r] = repResult{wall: wall, lats: all}
	}

	sort.Slice(repsRun, func(i, k int) bool { return repsRun[i].wall < repsRun[k].wall })
	med := repsRun[len(repsRun)/2]
	sort.Slice(med.lats, func(i, k int) bool { return med.lats[i] < med.lats[k] })
	pct := func(p float64) int64 {
		idx := int(p * float64(len(med.lats)-1))
		return med.lats[idx].Microseconds()
	}
	total := sessions * perSession
	spread = spreadFrac(repsRun[0].wall, repsRun[len(repsRun)-1].wall, med.wall)
	return float64(total) / med.wall.Seconds(), pct(0.50), pct(0.99), spread, nil
}

func runServerBench(outPath string, reps int, overwrite bool) error {
	if reps < 1 {
		reps = 1
	}
	cat := sip.GenerateTPCH(sip.DataConfig{ScaleFactor: serverBenchSF})
	// The adhoc path runs against its own server whose engine never caches
	// plans — the honest per-call floor. cached and prepared share the
	// default server, as real sessions would.
	cachedSrv, err := startBenchServer(sip.NewEngineWithConfig(cat, sip.EngineConfig{}))
	if err != nil {
		return err
	}
	defer cachedSrv.stop()
	nocacheSrv, err := startBenchServer(sip.NewEngineWithConfig(cat, sip.EngineConfig{PlanCacheSize: -1}))
	if err != nil {
		return err
	}
	defer nocacheSrv.stop()

	var cells []serverBenchCell
	for _, sessions := range serverBenchSessions {
		perSession := serverBenchTotal / sessions
		if perSession < serverBenchMinPer {
			perSession = serverBenchMinPer
		}
		cell := serverBenchCell{Sessions: sessions}
		var err error
		var sA, sC, sP float64
		if cell.AdhocQPS, cell.AdhocP50Micros, cell.AdhocP99Micros, sA, err = measureServer(nocacheSrv.addr, sessions, perSession, reps, false); err != nil {
			return err
		}
		if cell.CachedQPS, cell.CachedP50Micros, cell.CachedP99Micros, sC, err = measureServer(cachedSrv.addr, sessions, perSession, reps, false); err != nil {
			return err
		}
		if cell.PreparedQPS, cell.PreparedP50Micros, cell.PreparedP99Micros, sP, err = measureServer(cachedSrv.addr, sessions, perSession, reps, true); err != nil {
			return err
		}
		cell.SpeedupPrepared = cell.PreparedQPS / cell.AdhocQPS
		cell.SpeedupCached = cell.CachedQPS / cell.AdhocQPS
		cell.RepSpread = math.Max(sA, math.Max(sC, sP))
		cells = append(cells, cell)
		fmt.Printf("%4d session(s)  adhoc %8.0f q/s (p50 %5dus p99 %5dus)  cached %8.0f q/s (%.2fx)  prepared %8.0f q/s (%.2fx, p50 %5dus p99 %5dus)\n",
			sessions, cell.AdhocQPS, cell.AdhocP50Micros, cell.AdhocP99Micros,
			cell.CachedQPS, cell.SpeedupCached,
			cell.PreparedQPS, cell.SpeedupPrepared, cell.PreparedP50Micros, cell.PreparedP99Micros)
	}
	return recordBenchSection(outPath, "server_bench", cells, overwrite)
}
