package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	sip "repro"
)

// testCatalog is generated once: the serving-tier tests exercise the wire
// layer, not the data generator.
var (
	catOnce sync.Once
	testCat *sip.Catalog
)

// slowLineitem delays every lineitem scan by a pause every 1000 rows (the
// §VI-B model's shape), so a lineitem query over catalog() streams for ≈ 30
// pauses.
func slowLineitem(pause time.Duration) sip.Options {
	return sip.Options{DelayedTables: []string{"lineitem"}, Delay: &sip.DelayConfig{EveryN: 1000, Pause: pause}}
}

func catalog() *sip.Catalog {
	catOnce.Do(func() {
		testCat = sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.005})
	})
	return testCat
}

// startServer launches a Server on a loopback listener and registers a
// drain-or-force shutdown cleanup. Tests that hold long-running queries
// must close their clients before cleanup runs (t.Cleanup is LIFO, so
// client cleanups registered later already do).
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = sip.NewEngine(catalog())
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func dialT(t *testing.T, addr string, cfg DialConfig) *Client {
	t.Helper()
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitGoroutines polls until the goroutine count drops back to base,
// failing with a stack dump if it does not.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drainAll consumes a cursor fully and returns the rows.
func drainAll(t *testing.T, rows *Rows) []sip.Row {
	t.Helper()
	var out []sip.Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	rows.Close()
	return out
}

// TestSessionLifecycle drives the full protocol arc — handshake, ad-hoc
// query, prepare/execute/execute, statement close, session close — and
// checks the wire results against the embedded engine, with a goroutine
// leak check over the whole arc.
func TestSessionLifecycle(t *testing.T) {
	eng := sip.NewEngine(catalog())
	srv, addr := startServer(t, Config{Engine: eng})
	base := runtime.NumGoroutine()

	func() {
		c, err := Dial(addr, DialConfig{Tenant: "acme"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if c.ProtoVersion() != ProtoVersion {
			t.Fatalf("negotiated version %d, want %d", c.ProtoVersion(), ProtoVersion)
		}

		const sql = `SELECT n_name, count(*) FROM supplier, nation
			WHERE s_nationkey = n_nationkey GROUP BY n_name`
		want, err := eng.Query(context.Background(), sql, sip.Options{})
		if err != nil {
			t.Fatal(err)
		}

		rows, err := c.Query(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.Schema().Cols) != 2 {
			t.Fatalf("schema %v", rows.Schema().Cols)
		}
		got := drainAll(t, rows)
		if len(got) != len(want.Rows) {
			t.Fatalf("wire query: %d rows, want %d", len(got), len(want.Rows))
		}
		if rows.Summary() == nil || rows.Summary().Rows != int64(len(got)) {
			t.Fatalf("summary %+v, want %d rows", rows.Summary(), len(got))
		}

		// Prepared: same statement, two different bindings.
		stmt, err := c.Prepare(`SELECT n_name FROM nation WHERE n_nationkey = ?`)
		if err != nil {
			t.Fatal(err)
		}
		if stmt.NumParams() != 1 {
			t.Fatalf("NumParams = %d", stmt.NumParams())
		}
		for _, key := range []int64{3, 7} {
			r, err := stmt.Query(context.Background(), sip.Int(key))
			if err != nil {
				t.Fatal(err)
			}
			got := drainAll(t, r)
			if len(got) != 1 {
				t.Fatalf("key %d: %d rows", key, len(got))
			}
		}
		if err := stmt.Close(); err != nil {
			t.Fatal(err)
		}

		// A plan error is a response, not a dead session.
		if _, err := c.Query(context.Background(), `SELECT nope FROM nowhere`); err == nil {
			t.Fatal("bad query succeeded")
		} else {
			var we *WireError
			if !errors.As(err, &we) || we.Code != errCodePlan {
				t.Fatalf("bad query error %v, want plan code", err)
			}
		}
		rows, err = c.Query(context.Background(), `SELECT count(*) FROM region`)
		if err != nil {
			t.Fatalf("session dead after plan error: %v", err)
		}
		drainAll(t, rows)
	}()

	if n := srv.Metrics().QueriesOK.Load(); n != 4 {
		t.Fatalf("QueriesOK = %d, want 4", n)
	}
	waitGoroutines(t, base)
}

// TestConcurrentSessionsSoak hammers one server with many sessions mixing
// ad-hoc and prepared traffic (run under -race via make test-race), then
// checks the books balance and nothing leaked.
func TestConcurrentSessionsSoak(t *testing.T) {
	eng := sip.NewEngineWithConfig(catalog(), sip.EngineConfig{
		MaxConcurrentQueries: 8,
		MemBudget:            64 << 20,
	})
	srv, addr := startServer(t, Config{Engine: eng, TenantQuota: 4})
	base := runtime.NumGoroutine()

	const sessions = 12
	const perSession = 8
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, DialConfig{Tenant: fmt.Sprintf("t%d", i%3)})
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			stmt, err := c.Prepare(`SELECT n_name FROM nation WHERE n_nationkey = ?`)
			if err != nil {
				errCh <- err
				return
			}
			for j := 0; j < perSession; j++ {
				if j%2 == 0 {
					rows, err := c.Query(context.Background(),
						fmt.Sprintf(`SELECT count(*) FROM supplier WHERE s_nationkey = %d`, j%25))
					if err != nil {
						errCh <- err
						return
					}
					for rows.Next() {
					}
					if err := rows.Err(); err != nil {
						errCh <- err
						return
					}
					rows.Close()
				} else {
					rows, err := stmt.Query(context.Background(), sip.Int(int64(j%25)))
					if err != nil {
						errCh <- err
						return
					}
					for rows.Next() {
					}
					if err := rows.Err(); err != nil {
						errCh <- err
						return
					}
					rows.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if got := m.QueriesOK.Load(); got != sessions*perSession {
		t.Fatalf("QueriesOK = %d, want %d", got, sessions*perSession)
	}
	if got := m.SessionsTotal.Load(); got != sessions {
		t.Fatalf("SessionsTotal = %d, want %d", got, sessions)
	}
	// Engine admission and governor fully released.
	if n := eng.RunningQueries(); n != 0 {
		t.Fatalf("%d queries still running", n)
	}
	if gov := eng.GovernorStats(); gov.Admitted != 0 || gov.AvailableBytes != gov.TotalBytes {
		t.Fatalf("governor not drained: %+v", gov)
	}
	waitGoroutines(t, base)
}

// TestTenantQuotaFairness pins the quota contract: a greedy tenant whose
// long queries exceed its cap queues at the quota, NOT inside the engine,
// so another tenant's short queries keep flowing through the engine slots
// the greedy tenant would otherwise monopolize.
func TestTenantQuotaFairness(t *testing.T) {
	eng := sip.NewEngineWithConfig(catalog(), sip.EngineConfig{MaxConcurrentQueries: 2})
	srv, addr := startServer(t, Config{
		Engine: eng,
		// Greedy is capped at 1 concurrent query; the victim is unlimited.
		Quotas: map[string]int{"greedy": 1},
		// Delay lineitem so the greedy scan holds its slot for the whole
		// test (≈ 30 pauses of 1 s; Close cancels it mid-pause).
		BaseOptions: slowLineitem(time.Second),
	})

	// Three greedy connections all start long scans. Without the quota,
	// two would occupy both engine slots and starve everyone. The first
	// takes the tenant's only quota slot; the other two block awaiting a
	// server response, queued at the quota gate WITHOUT engine slots.
	const longSQL = `SELECT l_orderkey FROM lineitem`
	c0 := dialT(t, addr, DialConfig{Tenant: "greedy"})
	rows0, err := c0.Query(context.Background(), longSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !rows0.Next() {
		t.Fatalf("greedy query produced nothing: %v", rows0.Err())
	}
	for i := 0; i < 2; i++ {
		c := dialT(t, addr, DialConfig{Tenant: "greedy"})
		go func() {
			// Blocks at the quota until the test tears the client down
			// (or the first greedy cursor closes); either way the rows
			// are irrelevant — only the queuing matters.
			if rows, err := c.Query(context.Background(), longSQL); err == nil {
				rows.Close()
			}
		}()
	}
	// Wait until both extras are provably queued at the quota gate.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().QuotaWaits.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("greedy backlog never queued: QuotaWaits = %d", srv.Metrics().QuotaWaits.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The victim's short queries must all complete while the greedy
	// tenant's backlog exists.
	victim := dialT(t, addr, DialConfig{Tenant: "victim"})
	start := time.Now()
	for i := 0; i < 5; i++ {
		rows, err := victim.Query(context.Background(), `SELECT count(*) FROM nation`)
		if err != nil {
			t.Fatalf("victim query %d: %v", i, err)
		}
		drainAll(t, rows)
	}
	victimTime := time.Since(start)

	// The greedy tenant still holds exactly one engine slot (its quota):
	// the victim's burst proceeded because the backlog never reached the
	// engine.
	if n := eng.RunningQueries(); n < 1 {
		t.Fatalf("greedy long query no longer running (victim took %v)", victimTime)
	}
	rows0.Close()
}

// TestClientDisconnectCancelsQuery proves an abrupt client disconnect (no
// Cancel, no Quit) cancels the in-flight query server-side and returns its
// engine admission slot and memory-governor grant.
func TestClientDisconnectCancelsQuery(t *testing.T) {
	eng := sip.NewEngineWithConfig(catalog(), sip.EngineConfig{
		MaxConcurrentQueries: 2,
		MemBudget:            32 << 20,
	})
	_, addr := startServer(t, Config{
		Engine:      eng,
		BaseOptions: slowLineitem(time.Second),
	})
	base := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(conn, DialConfig{Tenant: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(context.Background(), `SELECT l_orderkey FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before disconnect: %v", rows.Err())
	}
	if gov := eng.GovernorStats(); gov.Admitted != 1 {
		t.Fatalf("governor admitted %d, want 1", gov.Admitted)
	}

	// Yank the wire.
	conn.Close()

	// The server must notice, cancel the query, and give everything back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gov := eng.GovernorStats()
		if eng.RunningQueries() == 0 && gov.Admitted == 0 && gov.AvailableBytes == gov.TotalBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query not reclaimed: running=%d governor=%+v", eng.RunningQueries(), gov)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitGoroutines(t, base)
}

// TestStalledClientBackpressure pins the tentpole streaming claim: a client
// that stops reading stalls only its own query — the server does not
// buffer the result, the query stays running (backpressured), and other
// sessions on the same server keep completing queries the whole time.
func TestStalledClientBackpressure(t *testing.T) {
	eng := sip.NewEngine(catalog())
	srv, addr := startServer(t, Config{Engine: eng})

	// The stalled session runs over an unbuffered in-memory pipe, so the
	// moment the client stops reading, the server's next write blocks.
	srvConn, cliConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c, err := NewClient(cliConn, DialConfig{Tenant: "stall"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Query(context.Background(), `SELECT l_orderkey, l_extendedprice FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	// Read a handful of rows to get the stream moving, then stall.
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended early: %v", rows.Err())
		}
	}
	time.Sleep(200 * time.Millisecond) // let the pipeline fill and block

	// While stalled, the query must still be RUNNING — a server that
	// materialized the result would have finished it by now.
	if n := eng.RunningQueries(); n != 1 {
		t.Fatalf("stalled query not running (running=%d): result was buffered?", n)
	}

	// Other sessions are unaffected: a second client completes a burst of
	// queries while the first is stalled.
	other := dialT(t, addr, DialConfig{Tenant: "fine"})
	for i := 0; i < 10; i++ {
		r, err := other.Query(context.Background(), `SELECT count(*) FROM supplier`)
		if err != nil {
			t.Fatalf("unaffected session query %d: %v", i, err)
		}
		drainAll(t, r)
	}
	if n := eng.RunningQueries(); n != 1 {
		t.Fatalf("after other session's burst: running=%d, want the stalled 1", n)
	}

	// Resume: the stalled stream picks up where it left off and completes
	// with every remaining row intact.
	n := 10
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query(context.Background(), `SELECT count(*) FROM lineitem`, sip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if int64(n) != want.Rows[0][0].I {
		t.Fatalf("resumed stream delivered %d rows, want %d", n, want.Rows[0][0].I)
	}
	rows.Close()
}

// TestGracefulShutdownDrains starts a query, begins Shutdown mid-stream,
// and requires the in-flight stream to finish cleanly while new statements
// are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	eng := sip.NewEngine(catalog())
	// ≈ 30 pauses of 20 ms: the stream runs ≈ 0.6 s, long past the start
	// of Shutdown.
	srv, err := New(Config{Engine: eng, BaseOptions: slowLineitem(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	c, err := Dial(l.Addr().String(), DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query(context.Background(), `SELECT l_orderkey FROM lineitem`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before shutdown: %v", rows.Err())
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// New connections are refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := Dial(l.Addr().String(), DialConfig{}); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new connections still accepted while draining")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The drain waits for the in-flight stream, which is still running.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) before the in-flight stream ended", err)
	default:
	}
	if n := eng.RunningQueries(); n != 1 {
		t.Fatalf("%d queries running once draining began, want the in-flight one", n)
	}

	// The in-flight stream survives the drain to completion.
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("draining killed the in-flight stream after %d rows: %v", n, err)
	}
	if rows.Summary() == nil || rows.Summary().Rows != int64(n) {
		t.Fatalf("summary %+v after drain, want %d rows", rows.Summary(), n)
	}
	rows.Close()

	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestMetricsEndpoints exercises /metrics and /stats over the real handler
// after real traffic, including the slow-query log.
func TestMetricsEndpoints(t *testing.T) {
	eng := sip.NewEngineWithConfig(catalog(), sip.EngineConfig{
		MemBudget:          16 << 20,
		SlowQueryThreshold: time.Nanosecond, // everything is slow
	})
	srv, addr := startServer(t, Config{Engine: eng})

	c := dialT(t, addr, DialConfig{Tenant: "ops"})
	rows, err := c.Query(context.Background(), `SELECT count(*) FROM nation WHERE n_regionkey = 2`)
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, rows)

	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()

	body := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sip_queries_ok_total 1",
		"sip_sessions_total 1",
		"sip_slow_queries_total 1",
		"sip_governor_total_bytes 16777216",
		"sip_plan_cache_misses_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	stats := httpGet(t, ts.URL+"/stats")
	if !strings.Contains(stats, `"sip_rows_sent_total": 1`) {
		t.Errorf("/stats missing rows counter:\n%s", stats)
	}
	if !strings.Contains(stats, "n_regionkey") {
		t.Errorf("/stats slow-query log missing the statement:\n%s", stats)
	}
	httpGet(t, ts.URL+"/debug/pprof/cmdline") // the runtime profiles ride along
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// TestReadLoopPanicClosesOnlyItsSession forces a panic inside the read loop
// (the decode hook stands in for a frame-decoding bug) and checks the
// containment contract: the panicking session closes, the panic is counted
// on /metrics and /stats, sessions opened before and after it keep serving,
// and nothing leaks.
func TestReadLoopPanicClosesOnlyItsSession(t *testing.T) {
	base := runtime.NumGoroutine()
	const poison = "SELECT decode_bug FROM nation"
	srv, addr := startServer(t, Config{decodeHook: func(typ byte, payload []byte) {
		if typ == frameQuery && strings.Contains(string(payload), "decode_bug") {
			panic("injected decode bug")
		}
	}})
	ctx := context.Background()
	count := func(c *Client) {
		t.Helper()
		rows, err := c.Query(ctx, `SELECT count(*) FROM nation`)
		if err != nil {
			t.Fatal(err)
		}
		if got := drainAll(t, rows); len(got) != 1 || got[0][0].I != 25 {
			t.Fatalf("count(*) over nation = %v", got)
		}
	}

	bystander := dialT(t, addr, DialConfig{Tenant: "bystander"})
	count(bystander)

	victim := dialT(t, addr, DialConfig{Tenant: "victim"})
	count(victim)
	if rows, err := victim.Query(ctx, poison); err == nil {
		for rows.Next() {
		}
		if rows.Err() == nil {
			t.Fatal("the poisoned query got an answer; want the session closed under it")
		}
		rows.Close()
	}
	if _, err := victim.Query(ctx, `SELECT count(*) FROM nation`); err == nil {
		t.Fatal("the panicked session still accepts queries")
	}

	if n := srv.metrics.SessionPanics.Load(); n != 1 {
		t.Fatalf("SessionPanics = %d, want 1", n)
	}
	count(bystander)
	count(dialT(t, addr, DialConfig{Tenant: "latecomer"}))

	ts := httptest.NewServer(srv.MetricsHandler())
	if body := httpGet(t, ts.URL+"/metrics"); !strings.Contains(body, "sip_session_panics_total 1") {
		t.Errorf("/metrics does not count the panic:\n%s", body)
	}
	if body := httpGet(t, ts.URL+"/stats"); !strings.Contains(body, `"sip_session_panics_total": 1`) {
		t.Errorf("/stats does not count the panic:\n%s", body)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	bystander.Close()
	victim.Close()
	ctxT, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctxT); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}
