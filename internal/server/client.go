package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	sip "repro"
)

// WireError is a server-reported error decoded from an Error frame. Code is
// machine-readable (see the package comment); Msg is the server's detail.
type WireError struct {
	Code string
	Msg  string
}

func (e *WireError) Error() string { return fmt.Sprintf("server: %s: %s", e.Code, e.Msg) }

// Is lets callers keep their local-engine error handling: a "canceled" wire
// error matches errors.Is(err, context.Canceled).
func (e *WireError) Is(target error) bool {
	return target == context.Canceled && e.Code == errCodeCanceled
}

// DialConfig carries the client side of the handshake: the tenant identity
// the server meters quotas by, and the session execution options.
type DialConfig struct {
	Tenant    string
	MemBudget int64
	// Partial selects PartialOnSourceError for the session: queries degrade
	// to partial results (with incomplete-table warnings in the summary)
	// instead of failing when a source stays dead.
	Partial bool
	// MaxFrameBytes bounds inbound frames (default DefaultMaxFrame).
	MaxFrameBytes int
}

// Client is a wire-protocol connection to a Server. A Client is safe for
// use from one request goroutine at a time — the protocol itself is
// sequential per connection — plus concurrent Cancel deliveries, which the
// write mutex serializes. Open a Client per concurrent query.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader
	version  int
	maxFrame int

	wmu sync.Mutex // serializes frame writes (Cancel is cross-goroutine)
	bw  *bufio.Writer

	// rbuf, cols and sbuf are per-exchange scratch: the protocol is strictly
	// sequential per connection and every decoded field copies out of the
	// frame payload, so one read buffer, one set of decoded column runs and
	// one request-encode buffer are reused for the connection's lifetime.
	// rbuf and cols are owned by whichever cursor or call currently holds
	// the read side (the busy flag); sbuf by the request sender.
	rbuf []byte
	cols []wireCol
	sbuf []byte

	mu     sync.Mutex
	busy   bool // an unfinished Rows owns the read side
	closed bool
}

// readFrame reads one frame into the connection's reusable buffer. The
// returned payload is valid until the next readFrame call.
func (c *Client) readFrame() (byte, []byte, error) {
	typ, payload, grown, err := readFrameInto(c.br, c.maxFrame, c.rbuf)
	c.rbuf = grown
	return typ, payload, err
}

// Dial connects to a server over TCP and performs the handshake.
func Dial(addr string, cfg DialConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient performs the handshake over an existing connection (tests use
// net.Pipe ends). It takes ownership of conn on success.
func NewClient(conn net.Conn, cfg DialConfig) (*Client, error) {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrame
	}
	c := &Client{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, frameBytes), // a frame, as the session writes it
		bw:       bufio.NewWriterSize(conn, 8<<10),
		maxFrame: cfg.MaxFrameBytes,
	}
	buf := append([]byte(nil), protoMagic...)
	buf = appendUvarint(buf, ProtoVersion)
	buf = appendString(buf, cfg.Tenant)
	buf = appendVarint(buf, cfg.MemBudget)
	mode := byte(0)
	if cfg.Partial {
		mode = 1
	}
	buf = append(buf, mode)
	if err := c.send(frameHello, buf); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, fmt.Errorf("server: handshake: %w", err)
	}
	switch typ {
	case frameHelloOK:
		p := payloadReader{buf: payload}
		c.version = p.length(1 << 16)
		p.string() // banner
		if p.err != nil {
			return nil, fmt.Errorf("server: malformed HelloOK")
		}
		return c, nil
	case frameError:
		return nil, decodeError(payload)
	default:
		return nil, fmt.Errorf("server: unexpected handshake frame 0x%02x", typ)
	}
}

// ProtoVersion returns the negotiated protocol version.
func (c *Client) ProtoVersion() int { return c.version }

// send writes one frame and flushes, under the write mutex.
func (c *Client) send(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := writeFrame(c.bw, typ, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// sendCancel is fired by the context watcher; best-effort by design.
func (c *Client) sendCancel() { c.send(frameCancel, nil) }

// Close sends a best-effort Quit and closes the connection. Any open Rows
// becomes invalid; the server cancels the in-flight query on disconnect.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.send(frameQuit, nil)
	return c.conn.Close()
}

// acquire marks the read side busy for a new request.
func (c *Client) acquire() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("server: client is closed")
	}
	if c.busy {
		return errors.New("server: previous result not closed")
	}
	c.busy = true
	return nil
}

func (c *Client) releaseBusy() {
	c.mu.Lock()
	c.busy = false
	c.mu.Unlock()
}

// Query runs ad-hoc SQL and returns a streaming cursor. Cancelling ctx
// sends a wire Cancel; the cursor then terminates with an error matching
// errors.Is(err, context.Canceled).
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	c.sbuf = appendString(c.sbuf[:0], sql)
	if err := c.send(frameQuery, c.sbuf); err != nil {
		c.releaseBusy()
		return nil, err
	}
	return c.openStream(ctx)
}

// openStream reads the stream-opening frame (Schema or Error) and arms the
// context watcher.
func (c *Client) openStream(ctx context.Context) (*Rows, error) {
	typ, payload, err := c.readFrame()
	if err != nil {
		c.releaseBusy()
		return nil, err
	}
	p := payloadReader{buf: payload}
	switch typ {
	case frameSchema:
		sch := p.schema()
		if p.err != nil {
			c.releaseBusy()
			return nil, fmt.Errorf("server: malformed schema frame")
		}
		c.cols = slices.Grow(c.cols[:0], len(sch.Cols))[:len(sch.Cols)]
		r := &Rows{c: c, schema: sch, cols: c.cols}
		if ctx.Done() != nil {
			r.stopWatch = context.AfterFunc(ctx, c.sendCancel)
		}
		return r, nil
	case frameError:
		c.releaseBusy()
		return nil, decodeError(payload)
	default:
		c.releaseBusy()
		return nil, fmt.Errorf("server: unexpected frame 0x%02x opening a result", typ)
	}
}

// Prepare compiles sql on the server and returns the statement handle.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	defer c.releaseBusy()
	c.sbuf = appendString(c.sbuf[:0], sql)
	if err := c.send(framePrepare, c.sbuf); err != nil {
		return nil, err
	}
	typ, payload, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	p := payloadReader{buf: payload}
	switch typ {
	case frameStmtOK:
		id := p.uvarint()
		nparams := p.length(1 << 16)
		sch := p.schema()
		if p.err != nil {
			return nil, fmt.Errorf("server: malformed StmtOK frame")
		}
		return &Stmt{c: c, id: id, numParams: nparams, schema: sch, sql: sql}, nil
	case frameError:
		return nil, decodeError(payload)
	default:
		return nil, fmt.Errorf("server: unexpected frame 0x%02x answering Prepare", typ)
	}
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	c         *Client
	id        uint64
	numParams int
	schema    *sip.Schema
	sql       string
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.numParams }

// Schema returns the statement's result schema.
func (s *Stmt) Schema() *sip.Schema { return s.schema }

// Query executes the prepared statement with args and returns a cursor.
func (s *Stmt) Query(ctx context.Context, args ...sip.Value) (*Rows, error) {
	if len(args) != s.numParams {
		return nil, fmt.Errorf("server: statement has %d parameter(s), got %d argument(s)", s.numParams, len(args))
	}
	if err := s.c.acquire(); err != nil {
		return nil, err
	}
	buf := appendUvarint(s.c.sbuf[:0], s.id)
	buf = appendUvarint(buf, uint64(len(args)))
	for _, v := range args {
		buf = appendValue(buf, v)
	}
	s.c.sbuf = buf
	if err := s.c.send(frameExecute, buf); err != nil {
		s.c.releaseBusy()
		return nil, err
	}
	return s.c.openStream(ctx)
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	if err := s.c.acquire(); err != nil {
		return err
	}
	defer s.c.releaseBusy()
	s.c.sbuf = appendUvarint(s.c.sbuf[:0], s.id)
	if err := s.c.send(frameCloseStmt, s.c.sbuf); err != nil {
		return err
	}
	typ, payload, err := s.c.readFrame()
	if err != nil {
		return err
	}
	if typ == frameError {
		return decodeError(payload)
	}
	return nil
}

// Rows is the client-side streaming cursor, shaped like sip.Rows: Next /
// Row / Err / Close, plus the server's execution Summary once the stream
// ends. A RowBatch frame is decoded and validated whole into per-column
// buffers the cursor reuses, so the client never holds more than one wire
// batch and a loop that only counts allocates nothing per row.
type Rows struct {
	c         *Client
	schema    *sip.Schema
	stopWatch func() bool

	cols     []wireCol // the current frame's runs (c.cols), one per schema column
	n, idx   int       // rows in the current frame; idx-1 is the current row
	block    []sip.Value
	cur      sip.Row // the current row once Row has boxed it
	sum      *Summary
	err      error
	done     bool
	released bool
}

// Schema returns the result schema; available immediately.
func (r *Rows) Schema() *sip.Schema { return r.schema }

// Next advances to the next row, blocking on the wire as needed. It
// returns false at end of stream; consult Err to distinguish completion
// from failure.
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	for r.idx >= r.n {
		typ, payload, err := r.c.readFrame()
		if err != nil {
			r.terminate(nil, err)
			return false
		}
		switch typ {
		case frameRowBatch:
			p := payloadReader{buf: payload}
			r.n, r.idx = p.rowBatch(r.cols), 0
			if p.err != nil {
				r.terminate(nil, fmt.Errorf("server: malformed row batch"))
				return false
			}
		case frameDone:
			p := payloadReader{buf: payload}
			sum := p.summary()
			if p.err != nil {
				r.terminate(nil, fmt.Errorf("server: malformed summary"))
				return false
			}
			r.terminate(sum, nil)
			return false
		case frameError:
			r.terminate(nil, decodeError(payload))
			return false
		default:
			r.terminate(nil, fmt.Errorf("server: unexpected frame 0x%02x in a result stream", typ))
			return false
		}
	}
	r.idx++
	r.cur = nil
	return true
}

// Row returns the current row; valid after a true Next and after further
// Next/Close calls. It is boxed here, when first asked for, into a block sized
// by the rows left in its frame; a retained row pins its block.
func (r *Rows) Row() sip.Row {
	if r.cur == nil && r.idx > 0 {
		if w := len(r.cols); cap(r.block)-len(r.block) < w {
			r.block = make([]sip.Value, 0, w*min(r.n-r.idx+1, 1024)) // capped: a NULL run claims rows for free
		}
		k := len(r.block)
		for j := range r.cols {
			r.block = append(r.block, r.cols[j].value(r.c.rbuf, r.idx-1)) // the frame is still in rbuf
		}
		r.cur = r.block[k:len(r.block):len(r.block)]
	}
	return r.cur
}

// Err returns the terminal error, nil after clean exhaustion or Close.
func (r *Rows) Err() error { return r.err }

// Summary returns the server's execution summary; non-nil only after the
// stream completed successfully.
func (r *Rows) Summary() *Summary { return r.sum }

// Incomplete lists the sources a partial result abandoned (empty for
// complete results); available once the stream has ended.
func (r *Rows) Incomplete() []IncompleteTable {
	if r.sum == nil {
		return nil
	}
	return r.sum.Incomplete
}

// Duration returns the server-side execution time once the stream ended.
func (r *Rows) Duration() time.Duration {
	if r.sum == nil {
		return 0
	}
	return time.Duration(r.sum.DurationMicros) * time.Microsecond
}

// Close cancels the query if it is still streaming and drains the stream's
// terminal frame, leaving the connection ready for the next request. It is
// idempotent and always returns nil.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	// Cancel server-side, then drain to the stream terminator. The drain
	// also unblocks a server stalled on conn.Write to us.
	r.c.sendCancel()
	for {
		typ, payload, err := r.c.readFrame()
		if err != nil {
			r.terminate(nil, err)
			r.err = nil // consumer-initiated close is not an error
			return nil
		}
		switch typ {
		case frameDone:
			p := payloadReader{buf: payload}
			sum := p.summary()
			r.terminate(sum, nil)
			return nil
		case frameError:
			r.terminate(nil, nil) // expected "canceled" terminator
			return nil
		}
	}
}

// terminate finalizes the cursor exactly once: stops the context watcher
// and releases the connection's read side.
func (r *Rows) terminate(sum *Summary, err error) {
	if r.done {
		return
	}
	r.done = true
	r.sum = sum
	r.err = err
	r.n, r.idx = 0, 0 // the frame buffer is no longer this cursor's
	if r.stopWatch != nil {
		r.stopWatch()
	}
	if !r.released {
		r.released = true
		r.c.releaseBusy()
	}
}

func decodeError(payload []byte) error {
	p := payloadReader{buf: payload}
	code := p.string()
	msg := p.string()
	if p.err != nil {
		return fmt.Errorf("server: malformed error frame")
	}
	return &WireError{Code: code, Msg: msg}
}
