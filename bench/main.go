// Command bench is the repository's one benchmark: it drives the SIP engine
// the way its users do — SQL text over loopback TCP through an in-process
// server.Server via server.Client — on six workloads, checks every answer
// against a reference, and prints the end-to-end metrics of a timed run or
// the per-layer metrics of a separate traced run. README.md documents the
// metrics, the workloads and how they are expected to interact.
//
// Usage (through run.sh, which builds this package first):
//
//	bash bench/run.sh                        the whole suite
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -selfcheck             the suite twice, compared
//	bash bench/run.sh -compare a.json b.json two saved suites, compared
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// runConfig is one workload invocation.
type runConfig struct {
	workload string
	// seed drives the request streams (point keys, stream constants);
	// dataSeed the generated tables.
	seed     int64
	dataSeed uint64
	dur      time.Duration
	trace    bool
	outDir   string
	// sf overrides the workload's scale factor when positive, setups is how
	// many times set-up runs and traceQueries overrides the traced run's
	// query count when positive; only the smoke test changes them.
	sf           float64
	setups       int
	traceQueries int
}

// defaultDataSeed generates the tables every driver run uses. The driver
// judges a metric's spread across --seed values, and data that changed with
// the seed moved result sizes, state and plan timings by more than the
// bounds (wire_bytes_per_query on tableI_mix by 22%), so --seed is kept to
// the request streams and the data has a seed of its own.
const defaultDataSeed = 2008

// setupRepeats is how many times a timed invocation sets up; setup_s is the
// median, so one slow generation does not decide it.
const setupRepeats = 3

// result is the last line an invocation prints, the contract's form.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload   string  `json:"workload"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	DataSeed   uint64  `json:"data_seed"`
	SF         float64 `json:"scale_factor"`
	Seconds    float64 `json:"timed_seconds"`
	Conns      int     `json:"connections"`
	Trace      bool    `json:"trace"`
	LoadAvg1   float64 `json:"loadavg_1min_start"`
	// SharedProcess says what rss_peak_mb covers.
	SharedProcess string `json:"rss_covers"`
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// gitCommit reads the revision the toolchain stamped into the binary; the
// driver's checkout is not a git repository and reads "unknown".
func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload is one invocation: set-up, then either the timed run with
// tracing off or the traced run.
func runWorkload(ctx context.Context, cfg runConfig) (result, environment, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, environment{}, err
	}
	env := environment{
		Workload: w.name, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: cfg.seed, DataSeed: cfg.dataSeed, SF: w.sf,
		Seconds: cfg.dur.Seconds(), Conns: w.conns, Trace: cfg.trace, LoadAvg1: loadAvg1(),
		SharedProcess: "server, clients and the generated tables, all in this process",
	}
	if cfg.sf > 0 {
		env.SF = cfg.sf
	}
	if env.LoadAvg1 >= float64(env.NProc) {
		fmt.Fprintf(os.Stderr, "warning: 1-minute load average %.2f is at or above nproc %d; timings will be noisy\n", env.LoadAvg1, env.NProc)
	}

	// Set up several times and keep the last fixture; setup_s is the median.
	var f *fixture
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if f != nil {
			f.close()
			f = nil
			runtime.GC()
		}
		if f, err = setup(ctx, w, cfg.seed, cfg.dataSeed, cfg.sf); err != nil {
			return result{}, env, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, f.times.total.Seconds())
	}
	defer f.close()

	if cfg.trace {
		n := w.traceQueries
		if cfg.traceQueries > 0 {
			n = cfg.traceQueries
		}
		rep, err := perLayerMetrics(ctx, f, env.LoadAvg1, min(cfg.dur, shortRun), n)
		if err != nil {
			return result{}, env, err
		}
		if err := writeTrace(cfg.outDir, w.name, cfg.seed, rep.spans); err != nil {
			return result{}, env, err
		}
		out, err := rep.metrics.report(perLayer)
		if err != nil {
			return result{}, env, err
		}
		return result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: out}, env, nil
	}

	// Hand the set-up repeats' garbage back so the resident set sampled
	// below is the timed run's own.
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	timed := f.run(ctx, runSpec{dur: cfg.dur})
	peak := rss.peakBytes()
	if w.countOnly {
		// The timed run checked these responses by row count; the warm-up
		// before it and this round after it hash them too.
		last := f.run(ctx, runSpec{rounds: 1, full: true})
		timed.attempted += last.attempted
		timed.failed += last.failed
		if timed.firstErr == nil {
			timed.firstErr = last.firstErr
		}
	}
	if timed.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failure: %v\n", timed.firstErr)
	}
	if len(timed.samples) == 0 {
		return result{}, env, fmt.Errorf("no query succeeded: %v", timed.firstErr)
	}
	out, err := endToEndMetrics(timed, median(setupS), peak).report(endToEnd)
	if err != nil {
		return result{}, env, err
	}
	return result{Correct: timed.failed == 0, Attempted: timed.attempted, Failed: timed.failed, Metrics: out}, env, nil
}

func main() {
	var cfg runConfig
	var seconds float64
	var trace int
	var selfcheck bool
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (the contract's form); empty runs the whole suite")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request streams: the point keys and the stream constants")
	flag.Uint64Var(&cfg.dataSeed, "dataseed", defaultDataSeed, "seed of the generated tables; change it to re-run a gain claim on data not used while writing the change")
	flag.Float64Var(&seconds, "seconds", runSeconds, "length of the timed run")
	flag.IntVar(&trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	cfg.outDir = filepath.Join("bench", "out")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the suite twice and compare the two against the bounds")
	flag.BoolVar(&compare, "compare", false, "compare two saved suite results: -compare a.json b.json")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json as the runner's tables define it")
	flag.Parse()
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	cfg.setups = 1
	if !cfg.trace {
		cfg.setups = setupRepeats
	}

	var err error
	switch {
	case *printSpec:
		var data []byte
		if data, err = specJSON(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case selfcheck:
		err = runSelfcheck(cfg)
	case cfg.workload == "":
		var suite suiteResult
		if suite, err = runSuite(cfg); err == nil {
			err = saveSuite(cfg.outDir, "results", suite)
		}
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the contract's invocation: the environment and the metrics as
// readable lines, then the result as the last line of standard output.
func runOne(cfg runConfig) error {
	res, env, err := runWorkload(context.Background(), cfg)
	if err != nil {
		return err
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env: %s\n", envLine)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Printf("samples: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d queries failed or answered wrongly", res.Failed, res.Attempted)
	}
	return nil
}

// workloadResult is one workload's two invocations in a saved suite.
type workloadResult struct {
	Env      environment `json:"env"`
	EndToEnd result      `json:"end_to_end"`
	PerLayer result      `json:"per_layer"`
}

// suiteResult is what the suite saves under bench/out.
type suiteResult struct {
	Workloads map[string]workloadResult `json:"workloads"`
	// AASpread is, per workload and end-to-end metric, the relative
	// difference between two runs of the same code; -selfcheck fills it.
	AASpread map[string]map[string]float64 `json:"aa_spread,omitempty"`
}

// runSuite runs every workload, timed and then traced, each as its own
// process of this same binary so that one workload's heap cannot colour
// the next one's memory and timings — exactly how the driver runs them.
func runSuite(cfg runConfig) (suiteResult, error) {
	self, err := os.Executable()
	if err != nil {
		return suiteResult{}, err
	}
	suite := suiteResult{Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		var wr workloadResult
		for _, trace := range []int{0, 1} {
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.dur.Seconds(), 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-dataseed", strconv.FormatUint(cfg.dataSeed, 10))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to end
			if err != nil {
				return suite, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			res, env, err := parseOutput(out)
			if err != nil {
				return suite, fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
			}
			if trace == 0 {
				wr.Env, wr.EndToEnd = env, res
			} else {
				wr.PerLayer = res
			}
		}
		suite.Workloads[w.name] = wr
		printWorkload(w.name, wr)
	}
	return suite, nil
}

func saveSuite(dir, name string, suite suiteResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(suite, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("saved %s; traces are %s\n", path, filepath.Join(dir, "trace-<workload>.json"))
	return nil
}

// parseOutput reads one invocation's standard output: the "env:" line and
// the result on the last line.
func parseOutput(out []byte) (result, environment, error) {
	var res result
	var env environment
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, env, fmt.Errorf("last line is not a result: %w", err)
	}
	for _, l := range lines {
		if rest, ok := bytes.CutPrefix(l, []byte("env: ")); ok {
			if err := json.Unmarshal(rest, &env); err != nil {
				return res, env, err
			}
		}
	}
	return res, env, nil
}

func printWorkload(name string, wr workloadResult) {
	fmt.Printf("\n== %s  (SF %g, %d connection(s), %g s timed, seed %d, data seed %d, %d samples, %d failed)\n",
		name, wr.Env.SF, wr.Env.Conns, wr.Env.Seconds, wr.Env.Seed, wr.Env.DataSeed, wr.EndToEnd.Attempted, wr.EndToEnd.Failed)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, wr.EndToEnd.Metrics[d.Name].Value, d.Unit)
	}
	for _, d := range perLayer {
		if v := wr.PerLayer.Metrics[d.Name].Value; v != 0 {
			fmt.Printf("  %-34s %16.6g %s\n", d.Name, v, d.Unit)
		}
	}
}
