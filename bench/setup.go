package main

import (
	"context"
	"fmt"
	"net"
	"time"

	sip "repro"
	"repro/internal/server"
)

// countConn counts what one client connection moves. The client reads from
// one goroutine and the counters are read only after its loop has ended, so
// they need no synchronization.
type countConn struct {
	net.Conn
	read, written int64 // bytes
	reads         int64 // Read calls, a proxy for receive syscalls
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	c.reads++
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// wireConn is one client connection to one strategy's server.
type wireConn struct {
	cl *server.Client
	cc *countConn
}

// lane is one closed-loop caller: it holds a connection to each strategy's
// server and sends one query at a time.
type lane struct {
	conns map[sip.Strategy]*wireConn
	gen   *generator
	i     int       // requests generated so far
	rows  []sip.Row // reused buffer of the rows under verification
}

// listener is one strategy's server on a loopback port.
type listener struct {
	srv    *server.Server
	addr   string
	served chan error // Serve's return value
}

// setupTimes splits setup_s into its parts.
type setupTimes struct {
	generate, reference, warmup, total time.Duration
}

// fixture is everything one workload runs against.
type fixture struct {
	w       *workloadDef
	seed    int64
	cat     *sip.Catalog
	eng     *sip.Engine
	servers map[sip.Strategy]*listener
	lanes   []*lane
	refs    map[string]answer
	budget  int64 // the sessions' MemBudget, 0 unless the workload spills
	times   setupTimes
}

// spillBytesPerRow sets q17_spill's MemBudget from the size of its input.
// Unbounded, Q17 under Baseline holds up to 320 B of join and agg state per
// lineitem row (38.4 MB at SF 0.02); the budget is a quarter of that.
// ISSUE 13 took a quarter of a PeakMemBytes measured during set-up, but
// that peak moves between 26 and 38 MB from run to run with the join's
// short-circuit timing, so the measured budget made every run a different
// workload.
const spillBytesPerRow = 80

// setup generates the data, starts the engine and its servers, connects
// the lanes, computes the reference answers and warms up. sf overrides the
// workload's scale factor when positive (the smoke test).
func setup(ctx context.Context, w *workloadDef, seed int64, dataSeed uint64, sf float64) (*fixture, error) {
	if sf <= 0 {
		sf = w.sf
	}
	start := time.Now()
	f := &fixture{w: w, seed: seed, servers: map[sip.Strategy]*listener{}, refs: map[string]answer{}}
	f.cat = sip.GenerateTPCH(sip.DataConfig{ScaleFactor: sf, Seed: dataSeed})
	f.times.generate = time.Since(start)
	f.eng = sip.NewEngine(f.cat)

	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	refStart := time.Now()
	for _, r := range newGenerator(w, f.cat, seed).distinct() {
		a, err := reference(ctx, f.eng, r)
		if err != nil {
			return nil, err
		}
		f.refs[r.ref] = a
	}
	f.times.reference = time.Since(refStart)
	if w.spill {
		lineitem, err := f.cat.Table("lineitem")
		if err != nil {
			return nil, err
		}
		f.budget = spillBytesPerRow * lineitem.NumRows()
	}

	for _, s := range w.strategies() {
		srv, err := server.New(server.Config{Engine: f.eng, BaseOptions: sip.Options{Strategy: s}})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l := &listener{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
		go func() { l.served <- srv.Serve(ln) }()
		f.servers[s] = l
	}
	for i := 0; i < w.conns; i++ {
		ln := &lane{conns: map[sip.Strategy]*wireConn{}, gen: newGenerator(w, f.cat, seed*1000+int64(i))}
		f.lanes = append(f.lanes, ln)
		for s, l := range f.servers {
			c, err := net.Dial("tcp", l.addr)
			if err != nil {
				return nil, err
			}
			cc := &countConn{Conn: c}
			cl, err := server.NewClient(cc, server.DialConfig{MemBudget: f.budget})
			if err != nil {
				c.Close()
				return nil, err
			}
			ln.conns[s] = &wireConn{cl: cl, cc: cc}
		}
	}

	warmStart := time.Now()
	warm := f.run(ctx, runSpec{rounds: w.warmupRounds, full: true})
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d queries failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	f.times.warmup = time.Since(warmStart)
	f.times.total = time.Since(start)
	ok = true
	return f, nil
}

// close disconnects the lanes and drains the servers, returning when every
// session and accept loop has ended.
func (f *fixture) close() {
	for _, ln := range f.lanes {
		for _, c := range ln.conns {
			c.cl.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, l := range f.servers {
		l.srv.Shutdown(ctx)
		<-l.served
	}
}
