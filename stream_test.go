package sip

// Tests of the streaming/context/prepared-statement execution API:
// cancellation and deadline propagation with goroutine-leak checks (run
// these under -race; `make test-race` does), plan-cache hit/eviction
// accounting, backpressure bounds, and placeholder correctness.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// slowOpts delays lineitem by a 1 s pause every 1000 rows, so a
// lineitem-sized query runs for tens of seconds — long enough to cancel
// mid-flight deterministically — after its first 1000 rows arrive at once.
func slowOpts() Options {
	return Options{DelayedTables: []string{"lineitem"}, Delay: &DelayConfig{EveryN: 1000, Pause: time.Second}}
}

const bigScanSQL = `SELECT l_orderkey, l_extendedprice FROM lineitem`

// waitGoroutines polls until the goroutine count drops back to base,
// failing the test with a full stack dump if it does not.
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

func TestQueryStreamCancelNoGoroutineLeak(t *testing.T) {
	e := testEngine(t)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := e.QueryStream(ctx, bigScanSQL, slowOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Consume a little to prove execution started, then cancel mid-flight.
	if !rows.Next() {
		t.Fatalf("no rows before cancel: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	if res := rows.Result(); res == nil {
		t.Fatal("Result() nil after terminal Next")
	}
	waitGoroutines(t, base)
}

func TestQueryStreamDeadlineExceeded(t *testing.T) {
	e := testEngine(t)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	rows, err := e.QueryStream(ctx, bigScanSQL, slowOpts())
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, base)
}

func TestAlreadyCancelledContextFailsDeterministically(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A fast point query must not outrun the cancellation watcher and return
	// success from a dead context.
	for i := 0; i < 20; i++ {
		if _, err := e.Query(ctx, `SELECT n_name FROM nation WHERE n_nationkey = 1`, Options{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
	}
}

func TestBlockingQueryHonorsContext(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := e.Query(ctx, bigScanSQL, slowOpts())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRowsCloseMidStreamIsCleanAndReclaims(t *testing.T) {
	e := testEngine(t)
	base := runtime.NumGoroutine()

	rows, err := e.QueryStream(context.Background(), bigScanSQL, slowOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("consumer-initiated Close must not surface an error, got %v", err)
	}
	if rows.Next() {
		t.Fatal("Next() true after Close")
	}
	if err := rows.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	waitGoroutines(t, base)
}

func TestQueryStreamMatchesBlockingQuery(t *testing.T) {
	e := testEngine(t)
	const q = `SELECT n_name, count(*) FROM supplier, nation
	           WHERE s_nationkey = n_nationkey GROUP BY n_name`
	want, err := e.Query(context.Background(), q, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := e.QueryStream(context.Background(), q, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Result() != nil {
		t.Fatal("Result() must be nil mid-flight (stats finalize at exhaustion)")
	}
	var got []Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if g, w := canon(got), canon(want.Rows); !equalStrings(g, w) {
		t.Fatalf("streamed rows differ from blocking result:\n%v\nvs\n%v", g, w)
	}
	res := rows.Result()
	if res == nil || res.TuplesScanned == 0 {
		t.Fatalf("finalized stats missing: %+v", res)
	}
}

func TestRowsAllIterator(t *testing.T) {
	e := testEngine(t)
	rows, err := e.QueryStream(context.Background(), `SELECT r_name FROM region`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range rows.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("iterator yielded %d regions, want 5", n)
	}
}

func TestPlanCacheHitAndEviction(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.005})
	e := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: 2})
	ctx := context.Background()

	// Distinct literals normalize to one parameterized template, so only
	// structurally different statements occupy distinct cache entries.
	q := func(i int) string { return fmt.Sprintf(`SELECT count(*) FROM nation WHERE n_regionkey = %d`, i) }
	q2 := `SELECT count(*) FROM region WHERE r_regionkey = 1`
	q3 := `SELECT count(*) FROM supplier WHERE s_nationkey = 1`
	run := func(sql string) {
		t.Helper()
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatal(err)
		}
	}

	run(q(1)) // miss
	run(q(2)) // hit: same template, different literal
	run(q(1)) // hit
	cs := e.PlanCacheStats()
	if cs.Hits != 2 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("after literal variants: %+v, want 2 hits / 1 miss / 1 entry", cs)
	}

	run(q2) // miss, cache full
	run(q3) // miss, evicts the nation template
	cs = e.PlanCacheStats()
	if cs.Evictions != 1 || cs.Entries != 2 {
		t.Fatalf("after overflow: %+v, want 1 eviction / 2 entries", cs)
	}

	run(q(1)) // miss again: its template was evicted
	cs = e.PlanCacheStats()
	if cs.Hits != 2 || cs.Misses != 4 || cs.Evictions != 2 {
		t.Fatalf("after re-run of evicted: %+v, want hits=2 misses=4 evictions=2", cs)
	}

	// Different plan-affecting options must not share a cached plan.
	if _, err := e.Query(ctx, q(1), Options{Strategy: Magic}); err != nil {
		t.Fatal(err)
	}
	if cs = e.PlanCacheStats(); cs.Misses != 5 {
		t.Fatalf("magic variant should miss: %+v", cs)
	}

	// Remote-table queries with the default (nil) Topology bypass the cache
	// entirely: each call gets an independent simulated link (pre-cache
	// semantics), and no never-matchable per-call keys pollute the cache.
	remote := Options{RemoteTables: map[string]int{"nation": 1}}
	before := e.PlanCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := e.Query(ctx, q(1), remote); err != nil {
			t.Fatal(err)
		}
	}
	after := e.PlanCacheStats()
	if after.Entries != before.Entries || after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("nil-topology remote queries touched the plan cache: %+v -> %+v", before, after)
	}

	// Disabled cache keeps zero stats.
	off := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})
	if _, err := off.Query(ctx, q(1), Options{}); err != nil {
		t.Fatal(err)
	}
	if cs := off.PlanCacheStats(); cs != (PlanCacheStats{}) {
		t.Fatalf("disabled cache reported %+v", cs)
	}
}

// TestBackpressureBoundsInFlightBatches pins the cursor's core promise: a
// stalled consumer stalls the scan. The pipeline holds only a few batches per
// edge, so the tuples scanned while the consumer sleeps must stay a small
// constant, not the table size.
func TestBackpressureBoundsInFlightBatches(t *testing.T) {
	e := testEngine(t)
	total, err := e.Query(context.Background(), bigScanSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(total.Rows) < 10_000 {
		t.Fatalf("test table too small for a meaningful bound: %d rows", len(total.Rows))
	}

	rows, err := e.QueryStream(context.Background(), bigScanSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	// Stall: consume nothing while the producers fill the bounded edges.
	time.Sleep(300 * time.Millisecond)
	inFlight := rows.reg.TotalScanned()
	// Plan: the scan is the root — a plain column projection of a table
	// leaves it as row-id batches of up to scanChunkRows rows. Stalled, the
	// cursor leaves pipelineDepth batches on the root edge, one the scan is
	// blocked sending, and the chunk it has read since.
	const pipelineDepth, scanChunkRows = 4, 1024 // exec's constants
	bound := int64((pipelineDepth + 2) * scanChunkRows)
	if inFlight == 0 {
		t.Fatal("scan did not start")
	}
	if inFlight > bound {
		t.Fatalf("stalled consumer left %d tuples in flight (> bound %d): backpressure broken", inFlight, bound)
	}

	// Drain: everything still arrives exactly once.
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(total.Rows) {
		t.Fatalf("drained %d rows, want %d", n, len(total.Rows))
	}
}

func TestMaxConcurrentQueriesAdmission(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.005})
	e := NewEngineWithConfig(cat, EngineConfig{MaxConcurrentQueries: 1})
	ctx := context.Background()

	hold, err := e.QueryStream(ctx, bigScanSQL, slowOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The only slot is taken: a second query must block in admission until
	// its context gives up.
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := e.Query(short, `SELECT count(*) FROM nation`, Options{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admission err = %v, want context.DeadlineExceeded", err)
	}
	// Closing the holder frees the slot.
	if err := hold.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, `SELECT count(*) FROM nation`, Options{}); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
}

func TestPreparedStatementPointQuery(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()

	stmt, err := e.Prepare(ctx, `SELECT n_name FROM nation WHERE n_nationkey = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", stmt.NumParams())
	}
	for k := int64(0); k < 25; k++ {
		got, err := stmt.Query(ctx, Int(k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Query(ctx, fmt.Sprintf(`SELECT n_name FROM nation WHERE n_nationkey = %d`, k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g, w := canon(got.Rows), canon(want.Rows); !equalStrings(g, w) {
			t.Fatalf("key %d: prepared %v != adhoc %v", k, g, w)
		}
	}

	// Argument-count mismatches are errors, not silent misexecution.
	if _, err := stmt.Query(ctx); err == nil {
		t.Fatal("missing argument accepted")
	}
	if _, err := stmt.Query(ctx, Int(1), Int(2)); err == nil {
		t.Fatal("extra argument accepted")
	}
}

func TestPreparedStatementParamInference(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()

	// Date inference: the `?` compared against a date column accepts a
	// 'YYYY-MM-DD' string argument.
	stmt, err := e.Prepare(ctx, `SELECT count(*) FROM orders WHERE o_orderdate < ?`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := stmt.Query(ctx, Str("1995-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(ctx, `SELECT count(*) FROM orders WHERE o_orderdate < '1995-01-01'`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].I != want.Rows[0][0].I || want.Rows[0][0].I == 0 {
		t.Fatalf("date param: got %v want %v (nonzero)", got.Rows[0][0], want.Rows[0][0])
	}

	// Float inference: an int argument coerces to the float comparison.
	stmt2, err := e.Prepare(ctx, `SELECT count(*) FROM supplier WHERE s_acctbal > ?`)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := stmt2.Query(ctx, Int(1000))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := e.Query(ctx, `SELECT count(*) FROM supplier WHERE s_acctbal > 1000`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Rows[0][0].I != w2.Rows[0][0].I {
		t.Fatalf("float param: got %v want %v", g2.Rows[0][0], w2.Rows[0][0])
	}

	// A wrongly-typed argument is an error, not a silent empty result.
	stmt3, err := e.Prepare(ctx, `SELECT n_name FROM nation WHERE n_nationkey = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt3.Query(ctx, Str("7")); err == nil {
		t.Fatal("string argument for an int parameter accepted")
	}
}

func TestAdhocQueryRejectsPlaceholders(t *testing.T) {
	e := testEngine(t)
	_, err := e.Query(context.Background(), `SELECT n_name FROM nation WHERE n_nationkey = ?`, Options{})
	if err == nil {
		t.Fatal("placeholder query accepted without arguments")
	}
}

func TestPlacementValidation(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	q := `SELECT count(*) FROM nation`

	if _, err := e.Query(ctx, q, Options{DelayedTables: []string{"natoin"}}); err == nil {
		t.Fatal("typoed DelayedTables accepted")
	}
	if _, err := e.Query(ctx, q, Options{RemoteTables: map[string]int{"natoin": 1}}); err == nil {
		t.Fatal("typoed RemoteTables accepted")
	}
	if _, err := e.Query(ctx, q, Options{RemoteTables: map[string]int{"nation": 0}}); err == nil {
		t.Fatal("site 0 (the master) accepted as a remote site")
	}
	// Valid names still work, case-insensitively.
	if _, err := e.Query(ctx, q, Options{DelayedTables: []string{"NATION"},
		Delay: &DelayConfig{Initial: time.Millisecond}}); err != nil {
		t.Fatalf("valid delayed table rejected: %v", err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowRefSQL's root is a plain column projection of a filtered lineitem scan,
// so (undelayed) the root delivers row-id batches: ≈ 14 of them at this scale,
// against a root edge four deep, so a cursor that stops reading holds the
// scan mid-stream.
const rowRefSQL = `SELECT l_orderkey, l_receiptdate, l_extendedprice FROM lineitem WHERE l_quantity < 24.5`

// TestRowIDRootCursor: over a row-id root, Query (Collect) ≡ QueryStream ≡
// the Project path (a delayed scan, which rootScan keeps off the row-id root);
// a Row kept across
// Next and Close keeps its values; and a cancel or an early Close mid-stream
// leaves no goroutine and no governor byte behind.
func TestRowIDRootCursor(t *testing.T) {
	e := NewEngineWithConfig(GenerateTPCH(DataConfig{ScaleFactor: 0.005}), EngineConfig{MemBudget: 64 << 20})
	ctx := context.Background()
	quiescent := func(base int) {
		t.Helper()
		waitGoroutines(t, base)
		if g := e.GovernorStats(); g.AvailableBytes != g.TotalBytes || g.Admitted != 0 {
			t.Fatalf("governor not released: %+v", g)
		}
	}

	res, err := e.Query(ctx, rowRefSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := canon(res.Rows)
	if len(want) < 4*1024 {
		t.Fatalf("only %d rows: the stream would not outlast the root edge", len(want))
	}
	delayed, err := e.Query(ctx, rowRefSQL, Options{DelayedTables: []string{"lineitem"},
		Delay: &DelayConfig{EveryN: 4096, Pause: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	if got := canon(delayed.Rows); !equalStrings(got, want) {
		t.Fatal("the Project path (a delayed scan) returned other rows than the row-id root")
	}

	base := runtime.NumGoroutine()
	rows, err := e.QueryStream(ctx, rowRefSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := rows.NextBatch(); !ok || b.Src == nil {
		t.Fatalf("the root did not deliver a row-id batch (ok=%v)", ok)
	}
	var got, kept []Row
	var keptWant []string
	for rows.Next() {
		row := rows.Row()
		if again := rows.Row(); &again[0] != &row[0] {
			t.Fatal("Row boxed the same row twice")
		}
		got = append(got, row)
		if len(got)%1500 == 1 { // rows of different batches, copied value by value
			kept = append(kept, row)
			keptWant = append(keptWant, canon([]Row{row.Clone()})...)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if !equalStrings(canon(got), want) { // Next walks the batch NextBatch returned, too
		t.Fatalf("QueryStream returned other rows than Query (%d vs %d)", len(got), len(want))
	}
	for i, row := range kept {
		if g := canon([]Row{row})[0]; g != keptWant[i] {
			t.Fatalf("kept row %d changed after Next/Close: %s, was %s", i, g, keptWant[i])
		}
	}
	quiescent(base)

	// Mid-stream cancel, then mid-stream Close: one row in, the scan is
	// blocked on the root edge.
	cctx, cancel := context.WithCancel(ctx)
	rows, err = e.QueryStream(cctx, rowRefSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before cancel: %v", rows.Err())
	}
	cancel()
	for rows.ectx.Err() == nil { // the watcher forwards the cancel; draining first could finish the query
		time.Sleep(time.Millisecond)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	quiescent(base)

	rows, err = e.QueryStream(ctx, rowRefSQL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows before Close: %v", rows.Err())
	}
	row := rows.Row()
	rowWant := canon([]Row{row.Clone()})[0]
	rows.Close()
	if err := rows.Err(); err != nil {
		t.Fatalf("consumer-initiated Close must not surface an error, got %v", err)
	}
	if g := canon([]Row{row})[0]; g != rowWant {
		t.Fatalf("row changed after Close: %s, was %s", g, rowWant)
	}
	quiescent(base)
}
