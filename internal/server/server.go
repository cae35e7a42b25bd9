// Package server is the engine's wire-protocol serving tier: a TCP front
// end that multiplexes many client sessions onto one embedded sip.Engine,
// streaming results without materializing them, enforcing per-tenant
// admission quotas on top of the engine's own admission controls, and
// exposing the engine's observability counters over HTTP.
//
// # Wire-frame contract
//
// Every message is a frame:
//
//	+-------------------+----------+------------------+
//	| length (4B BE)    | type (1B)| payload (length) |
//	+-------------------+----------+------------------+
//
// The length covers the payload only. Payload fields are unsigned/signed
// varints (encoding/binary), length-prefixed UTF-8 strings, and tagged
// values (one types.Kind byte followed by the kind's natural encoding:
// varint for INTEGER/DATE/BOOLEAN, 8-byte big-endian IEEE 754 for DECIMAL,
// a string for VARCHAR, nothing for NULL). Client→server frame types have
// the high bit clear; server→client types have it set.
//
// A session opens with a handshake: the client sends Hello (0x01) — the
// 4-byte magic "SIPW", its maximum protocol version (uvarint), a tenant
// name (string), and the session options (memory-budget varint, one
// failure-mode byte: 0 fail-fast, 1 partial). The server answers HelloOK
// (0x81) carrying the negotiated version min(client, server) and a banner
// string, or Error (0x82, code "version") when the client is too old. A
// connection that does not open with the magic is dropped without a reply.
// This is protocol version 4, the only one either end speaks: a version 1
// Hello (row-at-a-time RowBatch payloads), 2 (a scheduler string) or 3
// (varint integer runs) gets the "version" error and nothing else.
//
// After the handshake the session is a sequential request/response loop —
// at most one statement in flight per connection:
//
//	Query     (0x02) sql                    → result stream
//	Prepare   (0x03) sql                    → StmtOK (0x83) id, nparams, schema
//	Execute   (0x04) id, nargs, args...     → result stream
//	CloseStmt (0x05) id                     → Done (0x86) with a zero summary
//	Quit      (0x07)                        → connection close
//
// A result stream is Schema (0x84), zero or more RowBatch (0x85) frames,
// and a terminal Done (0x86) summary (row count, duration, the execution
// counters a client footer needs, and the incomplete-table list of a
// partial result), or a terminal Error (0x82) in place of Done if the query
// failed mid-stream. A RowBatch payload is a uvarint row count n (at most
// 2^24), then for each schema column one tag byte and a run of n values:
// the types.Kind all n values share — for INTEGER/DATE/BOOLEAN the varint
// minimum, then when n > 1 a width byte w ∈ {0, 1, 2, 4, 8} and n
// little-endian w-byte offsets from it; n × 8 bytes for DECIMAL, n strings
// for VARCHAR, no bytes for NULL — or 0xFF and n tagged values when kinds
// differ (a partly-NULL column; there is no NULL bitmap). Nothing may follow
// the last column's run. Row batches are encoded straight off the engine's
// streaming cursor, a batch at a time (sip.Rows.NextBatch): a batch of row
// ids over a base table — the root of a plain column projection of a scan —
// becomes one frame of at most 1 024 rows whose runs are read off the
// table's column vectors (cut near 64 KiB when a column is a string,
// NULL-holding or mixed one), and tuple batches coalesce into frames of 256
// rows, cut early near 64 KiB, the last partial frame riding with Done. A
// client that stops reading blocks the server's conn.Write (buffered one
// frame deep), which stops the cursor, which backpressures that query's
// operator pipeline — and nothing else.
//
// Cancel (0x06) is the one out-of-band frame: a reader goroutine services
// it while the session goroutine streams, aborting the in-flight query,
// whose stream then terminates with Error code "canceled". A client
// disconnect cancels the same way (the read loop fails), so an abandoned
// query releases its engine admission slot and memory grant promptly.
//
// Error frames carry a machine-readable code ("plan", "exec", "source",
// "memory", "canceled", "protocol", "shutdown", "version") and a
// human-readable message. After a response-position error the session
// continues; after a protocol error the connection closes.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	sip "repro"
)

// Config configures a Server. The zero value of every field except Engine
// is usable.
type Config struct {
	// Engine is the embedded query engine. Required.
	Engine *sip.Engine

	// BaseOptions seeds every session's execution options (strategy,
	// placement, delays). The session's Hello options (memory budget,
	// failure mode) overlay it.
	BaseOptions sip.Options

	// TenantQuota caps each tenant's concurrent queries (0 = unlimited).
	// The quota gates BEFORE the engine's MaxConcurrentQueries admission
	// and memory-governor grant, so one greedy tenant queues at its own
	// cap instead of occupying every engine slot.
	TenantQuota int

	// Quotas overrides TenantQuota per tenant name.
	Quotas map[string]int

	// MaxFrameBytes bounds one frame's payload (default DefaultMaxFrame).
	MaxFrameBytes int

	// Banner is the HelloOK server string (default "sip").
	Banner string

	// Logf, when set, receives connection-level diagnostics. Per-query
	// errors are wire responses, not log lines.
	Logf func(format string, args ...any)

	// decodeHook, set only by this package's tests, runs in the read loop
	// before each request frame is decoded; a test panics in it to stand in
	// for a decoder bug.
	decodeHook func(typ byte, payload []byte)
}

// Server accepts wire-protocol sessions and serves them against one engine.
type Server struct {
	cfg     Config
	eng     *sip.Engine
	quotas  *tenantQuotas
	metrics Metrics

	baseCtx context.Context // parent of every query; canceled on forced stop
	stop    context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	sessions map[*session]struct{}
	draining bool
	drainCh  chan struct{} // closed when draining starts

	wg sync.WaitGroup
}

// New builds a Server. It does not listen; pass a listener to Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrame
	}
	if cfg.Banner == "" {
		cfg.Banner = "sip"
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		quotas:   newTenantQuotas(cfg.TenantQuota, cfg.Quotas),
		baseCtx:  ctx,
		stop:     cancel,
		sessions: map[*session]struct{}{},
		drainCh:  make(chan struct{}),
	}, nil
}

// Serve accepts connections from l until Shutdown (or a permanent accept
// error) and blocks while sessions run. It always closes l.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			// Shutdown closes the listener; that is a clean exit.
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			s.wg.Wait()
			if draining {
				return nil
			}
			return err
		}
		s.startSession(conn)
	}
}

// startSession registers and launches one connection's session goroutines.
// Exported-path tests use ServeConn directly with a net.Pipe end.
func (s *Server) startSession(conn net.Conn) {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.metrics.SessionsTotal.Add(1)
	s.metrics.SessionsActive.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.run()
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.metrics.SessionsActive.Add(-1)
	}()
}

// ServeConn runs one already-accepted connection as a session, blocking
// until it ends. It lets tests and in-process clients use net.Pipe without
// a listener.
func (s *Server) ServeConn(conn net.Conn) {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.metrics.SessionsTotal.Add(1)
	s.metrics.SessionsActive.Add(1)
	s.wg.Add(1)
	defer s.wg.Done()
	sess.run()
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.metrics.SessionsActive.Add(-1)
}

// Shutdown drains the server: the listener closes, idle sessions close
// immediately, and sessions with a statement in flight finish streaming it
// first. When ctx expires before the drain completes, every remaining query
// is canceled and every connection force-closed. Shutdown returns when all
// session goroutines have exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	l := s.listener
	if !already {
		close(s.drainCh)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Forced: cancel every in-flight query, then cut the wires.
		s.stop()
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
		return context.Cause(ctx)
	}
}

// Metrics returns the server's live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Engine returns the embedded engine (for stats endpoints and tests).
func (s *Server) Engine() *sip.Engine { return s.eng }

// MetricsHandler returns an http.Handler serving GET /metrics (flat
// counters, one `name value` line each), GET /stats (a JSON snapshot
// including the slow-query log) and the Go runtime profiles under
// /debug/pprof/ (go tool pprof http://<addr>/debug/pprof/profile). Mount it
// on any mux or serve it with http.Serve on a dedicated listener.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetricsText)
	mux.HandleFunc("/stats", s.serveStatsJSON)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// counterValue pairs a metric name with its sampled value for the text
// endpoint; kept ordered so /metrics output is diffable.
type counterValue struct {
	name  string
	value int64
}

func (s *Server) counters() []counterValue {
	m := &s.metrics
	pc := s.eng.PlanCacheStats()
	gov := s.eng.GovernorStats()
	return []counterValue{
		{"sip_sessions_active", m.SessionsActive.Load()},
		{"sip_sessions_total", m.SessionsTotal.Load()},
		{"sip_session_panics_total", m.SessionPanics.Load()},
		{"sip_queries_started_total", m.QueriesStarted.Load()},
		{"sip_queries_ok_total", m.QueriesOK.Load()},
		{"sip_queries_failed_total", m.QueriesFailed.Load()},
		{"sip_queries_canceled_total", m.QueriesCanceled.Load()},
		{"sip_quota_waits_total", m.QuotaWaits.Load()},
		{"sip_rows_sent_total", m.RowsSent.Load()},
		{"sip_batches_sent_total", m.BatchesSent.Load()},
		{"sip_bytes_sent_total", m.BytesSent.Load()},
		{"sip_tuples_scanned_total", m.TuplesScanned.Load()},
		{"sip_tuples_pruned_total", m.TuplesPruned.Load()},
		{"sip_filters_created_total", m.FiltersCreated.Load()},
		{"sip_spill_bytes_total", m.SpillBytes.Load()},
		{"sip_retries_total", m.Retries.Load()},
		{"sip_engine_running_queries", int64(s.eng.RunningQueries())},
		{"sip_plan_cache_hits_total", pc.Hits},
		{"sip_plan_cache_misses_total", pc.Misses},
		{"sip_plan_cache_evictions_total", pc.Evictions},
		{"sip_plan_cache_entries", int64(pc.Entries)},
		{"sip_governor_total_bytes", gov.TotalBytes},
		{"sip_governor_available_bytes", gov.AvailableBytes},
		{"sip_governor_admitted", int64(gov.Admitted)},
		{"sip_slow_queries_total", s.eng.SlowQueryCount()},
	}
}

// Metrics is the server's counter set. All fields are atomic and safe to
// read while serving.
type Metrics struct {
	SessionsActive  atomic.Int64
	SessionsTotal   atomic.Int64
	SessionPanics   atomic.Int64 // read loops that panicked; each cost only its session
	QueriesStarted  atomic.Int64
	QueriesOK       atomic.Int64
	QueriesFailed   atomic.Int64
	QueriesCanceled atomic.Int64
	QuotaWaits      atomic.Int64
	RowsSent        atomic.Int64
	BatchesSent     atomic.Int64
	BytesSent       atomic.Int64

	// Cumulative execution counters folded in from each finished query's
	// Result, so the metrics endpoint can expose engine work without a
	// per-query registry surviving the pool.
	TuplesScanned  atomic.Int64
	TuplesPruned   atomic.Int64
	FiltersCreated atomic.Int64
	SpillBytes     atomic.Int64
	Retries        atomic.Int64
}

// addResult folds one finished query's counters into the cumulative totals.
func (m *Metrics) addResult(res *sip.Result) {
	if res == nil {
		return
	}
	m.TuplesScanned.Add(res.TuplesScanned)
	m.TuplesPruned.Add(res.TuplesPruned)
	m.FiltersCreated.Add(res.FiltersCreated)
	m.SpillBytes.Add(res.SpillBytes)
	m.Retries.Add(res.Retries)
}

// errShuttingDown is the response-position error sent to a session that
// submits a statement while the server drains.
var errShuttingDown = fmt.Errorf("server is shutting down")
