package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime/debug"
	"sync"

	sip "repro"
	"repro/internal/exec"
	"repro/internal/types"
)

// request is one client frame awaiting the session goroutine, decoded by
// the read loop so the frame payload buffer can be reused across requests.
// Cancel and Quit never become requests: the read loop services them
// directly. bad marks a frame that failed to decode (protocol error).
type request struct {
	typ  byte
	sql  string      // Query, Prepare
	id   uint64      // Execute, CloseStmt
	args []sip.Value // Execute
	bad  bool
}

// decodeRequest decodes one request frame into owned data: every string and
// value is copied out of payload, which the read loop overwrites on its
// next read.
func decodeRequest(typ byte, payload []byte) request {
	p := payloadReader{buf: payload}
	req := request{typ: typ}
	switch typ {
	case frameQuery, framePrepare:
		req.sql = p.string()
	case frameExecute:
		req.id = p.uvarint()
		nargs := p.length(1 << 16)
		if p.err != nil {
			req.bad = true
			return req
		}
		req.args = make([]sip.Value, nargs)
		for i := range req.args {
			req.args[i] = p.value()
		}
	case frameCloseStmt:
		req.id = p.uvarint()
	default:
		req.bad = true
		return req
	}
	if p.err != nil {
		req.bad = true
	}
	return req
}

// session is one connection's state: the negotiated identity and options,
// the prepared-statement table, and the in-flight query's cancel hook. Two
// goroutines share it — the session goroutine (handles requests, writes
// every response frame) and the read loop (decodes frames, services Cancel
// out of band) — so the cancel hook is the only mutable state they share,
// and it is mutex-guarded.
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	tenant  string
	version int
	opts    sip.Options

	stmts  map[uint64]*sip.Stmt
	nextID uint64

	// scratch, pend and ints amortize frame encoding across the session: row
	// batches and response payloads reuse them, so the steady-state row
	// stream does not allocate per batch.
	scratch []byte
	pend    []sip.Row // rows awaiting their frame
	ints    []int64   // an integer run's values, gathered

	// done closes when the session goroutine exits, releasing a read loop
	// blocked on the request channel (drain or protocol-error exits leave
	// the final request undelivered).
	done chan struct{}

	mu     sync.Mutex
	cancel context.CancelFunc // in-flight query, nil when idle
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 8<<10),
		// The write buffer holds one frame, so a frame is one conn.Write, and
		// still keeps backpressure honest: a stalled client blocks the session
		// goroutine after a frame of slack, which stops the cursor, which
		// stalls only that query's pipeline.
		bw:    bufio.NewWriterSize(conn, frameBytes),
		stmts: map[uint64]*sip.Stmt{},
		done:  make(chan struct{}),
	}
}

// run drives the session to completion; the caller owns deregistration.
func (sess *session) run() {
	defer sess.conn.Close()
	defer close(sess.done)
	if !sess.handshake() {
		return
	}
	reqCh := make(chan request)
	go sess.readLoop(reqCh)

	for {
		select {
		case req, ok := <-reqCh:
			if !ok {
				return // client closed, Quit, or read error
			}
			if !sess.handle(req) {
				return
			}
		case <-sess.srv.drainCh:
			// Draining while idle: close now. A request mid-handle never
			// reaches this select, so in-flight statements finish first.
			return
		}
	}
}

// handshake performs the Hello/HelloOK exchange. A connection that is not
// speaking the protocol (bad magic, malformed frame) is dropped without a
// reply; a well-formed but too-old client gets a "version" error frame.
func (sess *session) handshake() bool {
	typ, payload, err := readFrame(sess.br, sess.srv.cfg.MaxFrameBytes)
	if err != nil || typ != frameHello {
		return false
	}
	p := payloadReader{buf: payload}
	magic := p.take(len(protoMagic))
	clientMax := p.uvarint()
	if p.err != nil || string(magic) != protoMagic {
		return false
	}
	// The version decides the layout of what follows, so an older client is
	// refused before its session options are read.
	if clientMax < MinProtoVersion {
		sess.writeError(errCodeVersion, "client protocol version too old")
		sess.bw.Flush()
		return false
	}
	tenant := p.string()
	memBudget := p.varint()
	mode := p.byte()
	if p.err != nil {
		return false
	}
	sess.version = ProtoVersion
	if clientMax < uint64(sess.version) {
		sess.version = int(clientMax)
	}
	sess.tenant = tenant

	// Session options overlay the server's base options: the client picks
	// its memory budget and failure mode; plan-shaping options stay
	// server-controlled.
	sess.opts = sess.srv.cfg.BaseOptions
	if memBudget > 0 {
		sess.opts.MemBudget = memBudget
	}
	if mode == 1 {
		sess.opts.OnSourceFailure = sip.PartialOnSourceError
	}

	buf := appendUvarint(sess.scratch[:0], uint64(sess.version))
	buf = appendString(buf, sess.srv.cfg.Banner)
	sess.scratch = buf
	if err := writeFrame(sess.bw, frameHelloOK, buf); err != nil {
		return false
	}
	return sess.bw.Flush() == nil
}

// readLoop decodes frames off the wire and feeds them to the session
// goroutine. Cancel is serviced here — while the session goroutine streams
// a result it never reads the wire, so out-of-band cancellation must not
// queue behind it. A read error (client disconnect) cancels the in-flight
// query the same way, so an abandoned query releases its admission slot and
// memory grant promptly. A panic in here (a frame-decoding bug) is contained
// the same way: counted, logged, the in-flight query cancelled, and the
// request channel closed, which ends the session and its connection — the
// process and every other session keep serving.
func (sess *session) readLoop(reqCh chan<- request) {
	defer close(reqCh)
	defer func() {
		if r := recover(); r != nil {
			sess.srv.metrics.SessionPanics.Add(1)
			sess.srv.logf("server: session %s: read loop panicked: %v\n%s", sess.conn.RemoteAddr(), r, debug.Stack())
			sess.cancelInflight()
		}
	}()
	var scratch []byte
	for {
		typ, payload, grown, err := readFrameInto(sess.br, sess.srv.cfg.MaxFrameBytes, scratch)
		scratch = grown
		if err != nil {
			sess.cancelInflight()
			return
		}
		switch typ {
		case frameCancel:
			sess.cancelInflight()
		case frameQuit:
			return
		default:
			if h := sess.srv.cfg.decodeHook; h != nil {
				h(typ, payload)
			}
			select {
			case reqCh <- decodeRequest(typ, payload):
			case <-sess.done:
				return
			}
		}
	}
}

func (sess *session) setCancel(c context.CancelFunc) {
	sess.mu.Lock()
	sess.cancel = c
	sess.mu.Unlock()
}

func (sess *session) cancelInflight() {
	sess.mu.Lock()
	c := sess.cancel
	sess.mu.Unlock()
	if c != nil {
		c()
	}
}

// handle dispatches one request frame. It returns false when the session
// must close (protocol error or dead connection); response-position errors
// keep the session alive.
func (sess *session) handle(req request) bool {
	if req.bad {
		return sess.protoError()
	}
	switch req.typ {
	case frameQuery:
		return sess.runQuery(req.sql, nil, nil)
	case framePrepare:
		return sess.prepare(req.sql)
	case frameExecute:
		stmt, ok := sess.stmts[req.id]
		if !ok {
			return sess.writeError(errCodeProto, "unknown statement id") && sess.bw.Flush() == nil
		}
		return sess.runQuery(stmt.SQL(), stmt, req.args)
	case frameCloseStmt:
		delete(sess.stmts, req.id)
		buf := appendSummary(sess.scratch[:0], &Summary{})
		sess.scratch = buf
		return writeFrame(sess.bw, frameDone, buf) == nil && sess.bw.Flush() == nil
	default:
		return sess.protoError()
	}
}

// protoError reports a malformed or out-of-sequence frame and closes the
// session: once framing trust is lost, resynchronizing is guesswork.
func (sess *session) protoError() bool {
	sess.writeError(errCodeProto, "malformed frame")
	sess.bw.Flush()
	return false
}

func (sess *session) prepare(sql string) bool {
	if sess.srv.isDraining() {
		return sess.writeErrorFlush(errCodeShutdown, errShuttingDown.Error())
	}
	stmt, err := sess.srv.eng.PrepareWithOptions(sess.srv.baseCtx, sql, sess.opts)
	if err != nil {
		return sess.writeErrorFlush(errCodePlan, err.Error())
	}
	sess.nextID++
	id := sess.nextID
	sess.stmts[id] = stmt
	buf := appendUvarint(sess.scratch[:0], id)
	buf = appendUvarint(buf, uint64(stmt.NumParams()))
	buf = appendSchema(buf, stmt.Schema())
	sess.scratch = buf
	return writeFrame(sess.bw, frameStmtOK, buf) == nil && sess.bw.Flush() == nil
}

// runQuery admits, executes, and streams one statement. stmt is nil for
// ad-hoc text queries. The bool result follows handle's contract.
func (sess *session) runQuery(sql string, stmt *sip.Stmt, args []sip.Value) bool {
	srv := sess.srv
	if srv.isDraining() {
		return sess.writeErrorFlush(errCodeShutdown, errShuttingDown.Error())
	}
	ctx, cancel := context.WithCancel(srv.baseCtx)
	defer cancel()
	sess.setCancel(cancel)
	defer sess.setCancel(nil)

	// Tenant quota first, engine admission second: a tenant at its cap
	// queues here without holding an engine slot or memory grant.
	release, err := srv.quotas.acquire(ctx, sess.tenant, func() {
		srv.metrics.QuotaWaits.Add(1)
	})
	if err != nil {
		srv.metrics.QueriesCanceled.Add(1)
		return sess.writeErrorFlush(errCodeCanceled, "canceled while queued for tenant quota")
	}
	defer release()

	srv.metrics.QueriesStarted.Add(1)
	var rows *sip.Rows
	if stmt != nil {
		rows, err = stmt.QueryStream(ctx, args...)
	} else {
		rows, err = srv.eng.QueryStream(ctx, sql, sess.opts)
	}
	if err != nil {
		code, msg := classifyError(err, errCodePlan)
		sess.countOutcome(code)
		return sess.writeErrorFlush(code, msg)
	}
	defer rows.Close()
	return sess.streamRows(rows)
}

// Tuple batches coalesce into frames of frameRows rows, cut early once the
// pending rows' upper bound — valueBound summed over their values — reaches
// frameBytes, so a frame stays within frameBytes plus one row's bound: a value
// takes ≤ 8 B in a fixed-width run (whose slack covers its ≤ 12 B header from
// 4 rows on, and fewer rows reach frameBytes only past 1 986 columns) or
// ≤ 11 B in a mixed one. The bound overshoots, so rows wider than 23 columns
// (23 × 11 × 256 < 64 KiB) always cut before frameRows (TestFrameByteCut). A
// row-id batch is one frame when every column it carries has a vector
// (≤ 1 024 rows of ≤ 8 B values); one with a string, NULL-holding or mixed
// column is cut by the same bound. Do not raise frameRows: a delayed source's
// first frame waits for that many.
const frameRows, frameBytes = 256, 64 << 10

// valueBound bounds a value's encoding in any run: 11 B plus its string bytes.
func valueBound(v types.Value) int { return 11 + len(v.S) }

// refCut returns how many of the rows sel names the next row-id frame
// carries: all of them when every column has a vector, else as many as reach
// frameBytes under valueBound.
func refCut(src *exec.RootSource, sel []int32) int {
	for _, c := range src.Cols {
		if vec, _ := src.Vecs.IntVec(c); vec == nil && src.Vecs.FloatVec(c) == nil {
			size := 0
			for n, rid := range sel {
				for _, c := range src.Cols {
					size += valueBound(src.Rows[rid][c])
				}
				if size >= frameBytes {
					return n + 1
				}
			}
			break
		}
	}
	return len(sel)
}

// streamRows encodes the cursor's batches straight into wire frames: Schema,
// row batches as they arrive, then Done or Error. A row-id batch becomes a
// frame (or, past the byte cut, a few), its runs read off the table's column
// vectors; tuple batches coalesce. Nothing else is materialized, and a blocked
// conn.Write stops the NextBatch loop, backpressuring exactly this query's
// pipeline.
func (sess *session) streamRows(rows *sip.Rows) bool {
	srv := sess.srv
	// The schema frame is written but not flushed: a small result ships
	// schema, rows, and summary in one conn.Write instead of three — on a
	// loopback serving workload the per-query syscalls are a measurable
	// share of the round trip. Mid-stream tuple batches still flush eagerly
	// so a delayed result streams at batch granularity.
	buf := appendSchema(sess.scratch[:0], rows.Schema())
	if writeFrame(sess.bw, frameSchema, buf) != nil {
		sess.countOutcome(errCodeCanceled)
		return false
	}

	width := len(rows.Schema().Cols)
	var sent int64
	pend, pendBytes, ints := sess.pend[:0], 0, sess.ints
	// ship sends buf, the encoded batch of n rows.
	ship := func(n int, flush bool) bool {
		if writeFrame(sess.bw, frameRowBatch, buf) != nil || flush && sess.bw.Flush() != nil {
			return false
		}
		srv.metrics.BatchesSent.Add(1)
		srv.metrics.RowsSent.Add(int64(n))
		srv.metrics.BytesSent.Add(int64(frameHeaderLen + len(buf)))
		sent += int64(n)
		return true
	}
	shipPend := func(flush bool) bool {
		n := len(pend)
		if n == 0 {
			return true
		}
		buf = appendUvarint(buf[:0], uint64(n))
		for col := 0; col < width; col++ {
			buf, ints = appendRun(buf, ints, pend, col)
		}
		clear(pend) // a kept session must not pin the last result
		pend, pendBytes = pend[:0], 0
		return ship(n, flush)
	}
	ok := true
	for ok {
		b, more := rows.NextBatch()
		if !more {
			break
		}
		if src := b.Src; src != nil {
			for sel := b.Sel; ok && len(sel) > 0; {
				n := refCut(src, sel)
				buf = appendUvarint(buf[:0], uint64(n))
				for _, c := range src.Cols {
					if vec, k := src.Vecs.IntVec(c); vec != nil {
						buf, ints = appendIntRun(buf, ints, k, vec, sel[:n])
					} else if vec := src.Vecs.FloatVec(c); vec != nil {
						buf = appendFloatRun(buf, vec, sel[:n])
					} else { // a string, NULL-holding or mixed column: from the rows
						if len(pend) == 0 { // gathered once; no tuple is pending in a row-id stream
							for _, rid := range sel[:n] {
								pend = append(pend, src.Rows[rid])
							}
						}
						buf, ints = appendRun(buf, ints, pend, c)
					}
				}
				clear(pend)
				pend = pend[:0]
				// Not flushed: a row-id stream comes only from an unmodeled
				// local scan (Project.rootScan keeps delayed scans off the
				// row-id root), the writer flushes itself as it
				// fills, and the last frame rides with Done.
				ok = ship(n, false)
				sel = sel[n:]
			}
			continue
		}
		for _, l := range b.Live() {
			pend = append(pend, b.Tuples[l])
			for _, v := range b.Tuples[l] {
				pendBytes += valueBound(v)
			}
			if len(pend) >= frameRows || pendBytes >= frameBytes {
				if ok = shipPend(true); !ok {
					break
				}
			}
		}
	}
	// The final partial batch rides in the same flush as Done (or Error).
	ok = ok && shipPend(false)
	sess.scratch, sess.pend, sess.ints = buf, pend[:0], ints
	if !ok {
		sess.countOutcome(errCodeCanceled)
		return false
	}

	if err := rows.Err(); err != nil {
		code, msg := classifyError(err, errCodeExec)
		sess.countOutcome(code)
		return sess.writeErrorFlush(code, msg)
	}

	res := rows.Result()
	srv.metrics.QueriesOK.Add(1)
	srv.metrics.addResult(res)
	sum := wireSummary(sent, res)
	out := appendSummary(sess.scratch[:0], sum)
	sess.scratch = out
	return writeFrame(sess.bw, frameDone, out) == nil && sess.bw.Flush() == nil
}

// countOutcome bumps the failure counter matching a terminal error code.
func (sess *session) countOutcome(code string) {
	if code == errCodeCanceled {
		sess.srv.metrics.QueriesCanceled.Add(1)
	} else {
		sess.srv.metrics.QueriesFailed.Add(1)
	}
}

func (sess *session) writeError(code, msg string) bool {
	buf := appendString(sess.scratch[:0], code)
	buf = appendString(buf, msg)
	sess.scratch = buf
	return writeFrame(sess.bw, frameError, buf) == nil
}

func (sess *session) writeErrorFlush(code, msg string) bool {
	return sess.writeError(code, msg) && sess.bw.Flush() == nil
}

// classifyError maps an engine error to a wire error code; fallback is the
// code for errors with no more specific class (plan-time vs execution).
func classifyError(err error, fallback string) (code, msg string) {
	var srcErr *sip.SourceError
	var budErr *sip.BudgetError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return errCodeCanceled, err.Error()
	case errors.As(err, &srcErr):
		return errCodeSource, err.Error()
	case errors.As(err, &budErr):
		return errCodeMemory, err.Error()
	default:
		return fallback, err.Error()
	}
}

// wireSummary folds a finished query's Result into the Done payload.
func wireSummary(rows int64, res *sip.Result) *Summary {
	s := &Summary{Rows: rows}
	if res == nil {
		return s
	}
	s.DurationMicros = res.Duration.Microseconds()
	s.PeakStateBytes = res.PeakStateBytes
	s.FiltersCreated = res.FiltersCreated
	s.FiltersInjected = res.FiltersInjected
	s.TuplesPruned = res.TuplesPruned
	s.PeakMemBytes = res.PeakMemBytes
	s.SpillBytes = res.SpillBytes
	s.SpillEvents = res.SpillEvents
	s.Retries = res.Retries
	s.BreakerTransitions = res.BreakerTransitions
	s.WastedBytes = res.WastedBytes
	for _, se := range res.IncompleteTables {
		s.Incomplete = append(s.Incomplete, IncompleteTable{
			Table:    se.Table,
			Site:     se.Site,
			Attempts: se.Attempts,
			Cause:    se.Cause.Error(),
		})
	}
	return s
}
