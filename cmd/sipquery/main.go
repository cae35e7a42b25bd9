// Command sipquery runs ad-hoc SQL over generated TPC-H data under any of
// the four execution strategies. Results stream incrementally through the
// engine's Rows cursor, and Ctrl-C cancels the running query cleanly (the
// partial output is followed by a "cancelled" notice).
//
// Usage:
//
//	sipquery -sql "SELECT n_name, count(*) FROM supplier, nation
//	               WHERE s_nationkey = n_nationkey GROUP BY n_name"
//	sipquery -strategy Cost-based -sf 0.05 -sql "..."
//	sipquery -explain -sql "..."
//	sipquery -timeout 5s -sql "..."
//	sipquery -remote partsupp=1 -fault-transient 0.1 -partial -sql "..."
//	sipquery -mem-budget 1048576 -stats -sql "..."
//	sipquery -connect 127.0.0.1:7878 -tenant batch -sql "..."
//	echo "SELECT ..." | sipquery
//
// -connect switches to client mode: instead of generating data and running
// the query in-process, sipquery dials a sipserver over the wire protocol
// and streams the result back. The output, warnings, and exit codes match
// local mode; -mem-budget, -partial, and -timeout travel with the
// session, and -tenant names the quota bucket the server meters.
//
// The -fault-* flags inject deterministic failures into remote links and
// delayed scans (see sip.FaultProfile); -retries/-attempt-timeout bound the
// recovery policy, and -partial degrades a dead source to a partial result
// (with a warning and exit code 1) instead of failing the query.
//
// -mem-budget caps the query's tracked operator-state bytes: over the cap
// the stateful operators evict hash buckets to disk and merge them back
// after their inputs finish, trading wall time for bounded memory. The
// footer reports the tracked peak and spill volume whenever a query went
// out-of-core (and always under -stats); a budget too small for even the
// spill merge fails with the minimum workable figure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	sip "repro"
	"repro/internal/server"
)

func main() {
	var (
		sqlText  = flag.String("sql", "", "query text (default: read stdin)")
		connect  = flag.String("connect", "", "run against a sipserver at host:port instead of in-process")
		tenant   = flag.String("tenant", "", "tenant name for the server's admission quotas (with -connect)")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		skew     = flag.Bool("skew", false, "use the Zipf z=0.5 skewed data set")
		strategy = flag.String("strategy", "Baseline", "Baseline | Magic | Feed-forward | Cost-based")
		explain  = flag.Bool("explain", false, "print the bound block structure instead of executing")
		limit    = flag.Int("limit", 20, "max rows to print (0 = all)")
		delayed  = flag.String("delay", "", "comma-separated tables to delay per the paper's §VI-B model")
		stats    = flag.Bool("stats", false, "print per-operator statistics")
		timeout  = flag.Duration("timeout", 0, "cancel the query after this long (0 = no deadline)")

		remote = flag.String("remote", "", "comma-separated table=site placements, e.g. partsupp=1 (site > 0)")

		faultSeed      = flag.Int64("fault-seed", 0, "seed for deterministic fault injection")
		faultTransient = flag.Float64("fault-transient", 0, "per-interaction transient-error rate [0,1]")
		faultDrop      = flag.Float64("fault-drop", 0, "per-message drop rate [0,1]")
		faultStall     = flag.Float64("fault-stall", 0, "per-interaction stall rate [0,1]")
		faultCut       = flag.Float64("fault-cut", 0, "per-message mid-flight cut rate [0,1]")

		retries        = flag.Int("retries", 0, "retry budget per source (0 = default 3, negative disables)")
		attemptTimeout = flag.Duration("attempt-timeout", 0, "per-attempt timeout (0 = default 2s, negative disables)")
		partial        = flag.Bool("partial", false, "degrade to a partial result instead of failing when a source stays dead")
		memBudget      = flag.Int64("mem-budget", 0, "cap on tracked operator-state bytes; over budget the engine spills hash buckets to disk (0 = unbounded)")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight query via the engine's context plumbing:
	// every operator goroutine drains promptly and the cursor reports
	// context.Canceled.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	text := *sqlText
	if text == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		text = string(data)
	}
	if strings.TrimSpace(text) == "" {
		fatal(fmt.Errorf("no query: pass -sql or pipe SQL on stdin"))
	}

	if *connect != "" {
		os.Exit(runRemote(ctx, *connect, text, server.DialConfig{
			Tenant:    *tenant,
			MemBudget: *memBudget,
			Partial:   *partial,
		}, *limit, *stats))
	}

	cfg := sip.DataConfig{ScaleFactor: *sf}
	if *skew {
		cfg.Skew = true
		cfg.Z = 0.5
	}
	eng := sip.NewEngine(sip.GenerateTPCH(cfg))

	if *explain {
		out, err := eng.Explain(text)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	strat, err := sip.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	opts := sip.Options{Strategy: strat, MemBudget: *memBudget,
		Retry: sip.RetryPolicy{MaxRetries: *retries, AttemptTimeout: *attemptTimeout}}
	if *delayed != "" {
		opts.DelayedTables = strings.Split(*delayed, ",")
	}
	if *remote != "" {
		opts.RemoteTables = map[string]int{}
		for _, pair := range strings.Split(*remote, ",") {
			name, site, ok := strings.Cut(strings.TrimSpace(pair), "=")
			var n int
			if ok {
				_, err := fmt.Sscanf(site, "%d", &n)
				ok = err == nil
			}
			if !ok {
				fatal(fmt.Errorf("bad -remote entry %q (want table=site)", pair))
			}
			opts.RemoteTables[name] = n
		}
	}
	if prof := (sip.FaultProfile{Seed: *faultSeed, TransientRate: *faultTransient,
		DropRate: *faultDrop, StallRate: *faultStall, CutRate: *faultCut}); prof.Active() {
		opts.Faults = &prof
	}
	if *partial {
		opts.OnSourceFailure = sip.PartialOnSourceError
	}

	start := time.Now()
	rows, err := eng.QueryStream(ctx, text, opts)
	if err != nil {
		fatal(err)
	}
	defer rows.Close()

	// Print the header, then rows as they arrive — no buffering of the
	// full result.
	var sb strings.Builder
	for i, c := range rows.Schema().Cols {
		if i > 0 {
			sb.WriteString("\t")
		}
		sb.WriteString(c.Name)
	}
	fmt.Println(sb.String())
	n := 0
	for rows.Next() {
		n++
		if *limit > 0 && n > *limit {
			continue // keep draining for the exact row count and stats
		}
		sb.Reset()
		for j, v := range rows.Row() {
			if j > 0 {
				sb.WriteString("\t")
			}
			sb.WriteString(v.String())
		}
		fmt.Println(sb.String())
	}
	if *limit > 0 && n > *limit {
		fmt.Printf("... (%d more rows)\n", n-*limit)
	}
	exitCode := 0
	var srcErr *sip.SourceError
	var budgetErr *sip.BudgetError
	switch err := rows.Err(); {
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "sipquery: query cancelled (partial output)")
		exitCode = 1
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "sipquery: query timed out (partial output)")
		exitCode = 1
	case errors.As(err, &srcErr):
		fmt.Fprintf(os.Stderr, "sipquery: source failed: table %s (site %d) stayed dead after %d attempt(s): %v\n",
			srcErr.Table, srcErr.Site, srcErr.Attempts, srcErr.Cause)
		fmt.Fprintln(os.Stderr, "sipquery: rerun with -partial to degrade to a partial result instead")
		exitCode = 1
	case errors.As(err, &budgetErr):
		fmt.Fprintf(os.Stderr, "sipquery: memory budget too small: %v\n", budgetErr)
		fmt.Fprintf(os.Stderr, "sipquery: rerun with -mem-budget %d or higher\n", budgetErr.Need)
		exitCode = 1
	case err != nil:
		fatal(err)
	}

	res := rows.Result()
	// Degradation warnings: a partial result must never read like a
	// complete one.
	for _, se := range res.IncompleteTables {
		fmt.Fprintf(os.Stderr, "sipquery: WARNING: result incomplete — table %s (site %d) abandoned after %d attempt(s): %v\n",
			se.Table, se.Site, se.Attempts, se.Cause)
		exitCode = 1
	}
	fmt.Printf("\n%d row(s) in %v; state peak %.2f MB; %d filter(s), %d tuple(s) pruned\n",
		n, time.Since(start).Round(time.Millisecond),
		float64(res.PeakStateBytes)/(1<<20), res.FiltersCreated, res.TuplesPruned)
	// Filter-memory accounting is diagnostic detail: keep the default
	// footer identical across strategies (scripts diff it) and only print
	// it alongside the full report.
	if *stats && (res.FilterBytes > 0 || res.PeakFilterWorkingBytes > 0) {
		fmt.Printf("filter memory: %.2f KB total, %.2f KB working-set peak\n",
			float64(res.FilterBytes)/(1<<10), float64(res.PeakFilterWorkingBytes)/(1<<10))
	}
	if res.Retries > 0 || res.BreakerTransitions > 0 || res.WastedBytes > 0 {
		fmt.Printf("recovery: %d retr%s, %d breaker transition(s), %d wasted byte(s)\n",
			res.Retries, plural(res.Retries, "y", "ies"), res.BreakerTransitions, res.WastedBytes)
	}
	// Spill accounting: always visible when the query actually went
	// out-of-core (a spilling run should never look identical to an
	// in-memory one), and under -stats even when it did not.
	if *stats || res.SpillEvents > 0 {
		fmt.Printf("memory: %.2f MB tracked peak; %.2f MB spilled in %d eviction(s)\n",
			float64(res.PeakMemBytes)/(1<<20), float64(res.SpillBytes)/(1<<20), res.SpillEvents)
	}
	if *stats {
		fmt.Println()
		fmt.Print(res.Stats.Report())
	}
	// A truncated result must not look like success to scripts.
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// runRemote executes the query against a sipserver, mirroring local mode's
// output, warnings, and exit codes. Returns the process exit code.
func runRemote(ctx context.Context, addr, text string, dial server.DialConfig, limit int, stats bool) int {
	c, err := server.Dial(addr, dial)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sipquery:", err)
		return 1
	}
	defer c.Close()

	start := time.Now()
	rows, err := c.Query(ctx, text)
	if err != nil {
		return remoteFail(ctx, err)
	}
	defer rows.Close()

	var sb strings.Builder
	for i, col := range rows.Schema().Cols {
		if i > 0 {
			sb.WriteString("\t")
		}
		sb.WriteString(col.Name)
	}
	fmt.Println(sb.String())
	n := 0
	for rows.Next() {
		n++
		if limit > 0 && n > limit {
			continue // keep draining for the exact row count and summary
		}
		sb.Reset()
		for j, v := range rows.Row() {
			if j > 0 {
				sb.WriteString("\t")
			}
			sb.WriteString(v.String())
		}
		fmt.Println(sb.String())
	}
	if limit > 0 && n > limit {
		fmt.Printf("... (%d more rows)\n", n-limit)
	}
	exitCode := 0
	if err := rows.Err(); err != nil {
		exitCode = remoteFail(ctx, err)
	}

	sum := rows.Summary()
	if sum == nil {
		sum = &server.Summary{}
	}
	// Degradation warnings: a partial result must never read like a
	// complete one — same contract as local mode.
	for _, se := range sum.Incomplete {
		fmt.Fprintf(os.Stderr, "sipquery: WARNING: result incomplete — table %s (site %d) abandoned after %d attempt(s): %v\n",
			se.Table, se.Site, se.Attempts, se.Cause)
		exitCode = 1
	}
	fmt.Printf("\n%d row(s) in %v; state peak %.2f MB; %d filter(s), %d tuple(s) pruned\n",
		n, time.Since(start).Round(time.Millisecond),
		float64(sum.PeakStateBytes)/(1<<20), sum.FiltersCreated, sum.TuplesPruned)
	if sum.Retries > 0 || sum.BreakerTransitions > 0 || sum.WastedBytes > 0 {
		fmt.Printf("recovery: %d retr%s, %d breaker transition(s), %d wasted byte(s)\n",
			sum.Retries, plural(sum.Retries, "y", "ies"), sum.BreakerTransitions, sum.WastedBytes)
	}
	if stats || sum.SpillEvents > 0 {
		fmt.Printf("memory: %.2f MB tracked peak; %.2f MB spilled in %d eviction(s)\n",
			float64(sum.PeakMemBytes)/(1<<20), float64(sum.SpillBytes)/(1<<20), sum.SpillEvents)
	}
	if stats {
		fmt.Fprintln(os.Stderr, "sipquery: per-operator -stats is not available over the wire; see the server's /stats endpoint")
	}
	return exitCode
}

// remoteFail prints the same diagnostics local mode would for the class of
// failure a wire error reports, and returns exit code 1.
func remoteFail(ctx context.Context, err error) int {
	var we *server.WireError
	switch {
	case errors.Is(err, context.Canceled):
		if ctx.Err() == context.DeadlineExceeded {
			fmt.Fprintln(os.Stderr, "sipquery: query timed out (partial output)")
		} else {
			fmt.Fprintln(os.Stderr, "sipquery: query cancelled (partial output)")
		}
	case errors.As(err, &we) && we.Code == "source":
		fmt.Fprintf(os.Stderr, "sipquery: source failed: %s\n", we.Msg)
		fmt.Fprintln(os.Stderr, "sipquery: rerun with -partial to degrade to a partial result instead")
	case errors.As(err, &we) && we.Code == "memory":
		fmt.Fprintf(os.Stderr, "sipquery: memory budget too small: %s\n", we.Msg)
		fmt.Fprintln(os.Stderr, "sipquery: rerun with a higher -mem-budget")
	default:
		fmt.Fprintln(os.Stderr, "sipquery:", err)
	}
	return 1
}

func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sipquery:", err)
	os.Exit(1)
}
