// Command ctrlsched regenerates the tables and figures of "Anomalies in
// Scheduling Control Applications and Design Complexity" (Aminifar & Bini,
// DATE 2017) from the ctrlsched reproduction library.
//
// Usage:
//
//	ctrlsched fig2     [-points N] [-workers W] [-csv|-json]
//	ctrlsched fig4     [-csv|-json]
//	ctrlsched table1   [-benchmarks N] [-sizes 4,8,12,16,20] [-seed S] [-diagnose] [-workers W] [-csv|-json]
//	ctrlsched fig5     [-benchmarks N] [-sizes 4,6,...,20] [-seed S] [-workers W] [-csv|-json]
//	ctrlsched anomalies [-trials N] [-sizes ...] [-seed S] [-workers W] [-csv|-json]
//	ctrlsched analyze  [-batch] [-workers W] [-addr URL] [-max-retries N] [-csv|-json] < request.json
//	ctrlsched codesign [-workers W] [-addr URL] [-max-retries N] [-csv|-json] < request.json
//	ctrlsched serve    [-addr :8080] [-workers W] [-concurrency C] ...
//	ctrlsched job      <submit|status|stream|wait|result|cancel> [-addr URL] ...
//	ctrlsched all      (quick versions of everything)
//
// Every experiment subcommand runs through the same typed result structs
// the ctrlschedd HTTP daemon serves: -json emits the canonical JSON
// encoding, -csv the CSV view, and the default is the human-readable
// ASCII rendering. Campaigns fan out over a worker pool (-workers,
// default all CPUs); every count and statistic is byte-identical for
// every worker count. The one exception is fig5's seconds columns, which
// by design measure the parallel campaign's wall-clock time and
// therefore shrink as -workers grows (its evaluation counts stay
// invariant).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/experiments"
	"ctrlsched/internal/service"
)

// workersFlag registers the shared -workers flag: the campaign
// worker-pool size, defaulting to every CPU. All counts and statistics
// are identical for any value (see internal/campaign); only wall-clock
// time — including fig5's measured seconds — changes.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", runtime.NumCPU(), "campaign worker goroutines (counts are worker-count invariant; only wall-clock changes)")
}

// outputFlags registers the shared output-format flags.
func outputFlags(fs *flag.FlagSet) (csv, json *bool) {
	csv = fs.Bool("csv", false, "emit CSV instead of ASCII")
	json = fs.Bool("json", false, "emit the canonical JSON result (same bytes as the HTTP API)")
	return csv, json
}

// emit writes one result in the selected format.
func emit(res experiments.Result, csv, json bool) {
	switch {
	case json:
		if err := experiments.EncodeJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "ctrlsched:", err)
			os.Exit(1)
		}
	case csv:
		res.WriteCSV(os.Stdout)
	default:
		res.Render(os.Stdout)
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "fig2":
		runFig2(args)
	case "fig4":
		runFig4(args)
	case "table1":
		runTable1(args)
	case "fig5":
		runFig5(args)
	case "anomalies":
		runAnomalies(args)
	case "compare":
		runCompare(args)
	case "analyze":
		runAnalyze(args)
	case "codesign":
		runCodesign(args)
	case "serve":
		runServe(args)
	case "job":
		runJob(args)
	case "all":
		runAll()
	default:
		fmt.Fprintf(os.Stderr, "ctrlsched: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `ctrlsched — reproduction harness for Aminifar & Bini, DATE 2017

commands:
  fig2       LQG cost vs sampling period (pathological spikes, rising trend)
  fig4       jitter-margin stability curves + linear lower bounds (Eq. 5)
  table1     %% invalid assignments of the Unsafe Quadratic baseline
  fig5       campaign runtime: Unsafe Quadratic vs backtracking Algorithm 1
  anomalies  frequency of jitter/priority anomalies on random benchmarks
  compare    valid-assignment rate: RM vs slack-monotonic vs unsafe vs Alg. 1
  analyze    one task set or plant (JSON request on stdin; see README);
             -batch fans a {"items":[...]} request out over the worker pool
  codesign   synthesize sampling periods + priorities for candidate loops
             (JSON request on stdin; see README) — the co-design engine
  serve      run the HTTP analysis service in-process (same API as ctrlschedd)
  job        drive a daemon's async jobs: submit, status, stream, wait,
             result, cancel (see ctrlsched job -h)
  all        quick versions of all of the above`)
}

// parseSizes parses a comma-separated -sizes value; "" means the
// experiment's defaults. Every size must fit the assignment algorithms.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > assign.MaxTasks {
			return nil, fmt.Errorf("bad size %q (want 1 to %d)", part, assign.MaxTasks)
		}
		out = append(out, v)
	}
	return out, nil
}

// mustParseSizes is parseSizes for a subcommand: a bad size exits 2.
func mustParseSizes(s string) []int {
	sizes, err := parseSizes(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched:", err)
		os.Exit(2)
	}
	return sizes
}

func runFig2(args []string) {
	fs := flag.NewFlagSet("fig2", flag.ExitOnError)
	points := fs.Int("points", 400, "samples per period sweep")
	workers := workersFlag(fs)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	emit(experiments.Fig2Run(experiments.Fig2RunConfig{Points: *points}, experiments.Exec{Workers: *workers}), *csv, *json)
}

func runFig4(args []string) {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	res, err := experiments.Fig4Run(experiments.Fig4Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched:", err)
		os.Exit(1)
	}
	emit(res, *csv, *json)
}

func runTable1(args []string) {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	benchmarks := fs.Int("benchmarks", 10000, "benchmarks per task-set size")
	sizes := fs.String("sizes", "4,8,12,16,20", "comma-separated task-set sizes")
	seed := fs.Int64("seed", 1, "random seed")
	diagnose := fs.Bool("diagnose", true, "split invalid outputs into infeasible vs rescued")
	workers := workersFlag(fs)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	emit(experiments.Table1(experiments.Table1Config{
		Benchmarks:      *benchmarks,
		Sizes:           mustParseSizes(*sizes),
		Seed:            *seed,
		DiagnoseRescues: *diagnose,
	}, experiments.Exec{Workers: *workers}), *csv, *json)
}

func runFig5(args []string) {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	benchmarks := fs.Int("benchmarks", 10000, "benchmarks per task-set size")
	sizes := fs.String("sizes", "4,6,8,10,12,14,16,18,20", "comma-separated task-set sizes")
	seed := fs.Int64("seed", 1, "random seed")
	workers := workersFlag(fs)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	emit(experiments.Fig5(experiments.Fig5Config{
		Benchmarks: *benchmarks,
		Sizes:      mustParseSizes(*sizes),
		Seed:       *seed,
	}, experiments.Exec{Workers: *workers}), *csv, *json)
}

func runAnomalies(args []string) {
	fs := flag.NewFlagSet("anomalies", flag.ExitOnError)
	trials := fs.Int("trials", 10000, "priority-raise trials per size")
	sizes := fs.String("sizes", "4,8,12,16,20", "comma-separated task-set sizes")
	seed := fs.Int64("seed", 1, "random seed")
	workers := workersFlag(fs)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	emit(experiments.Anomalies(experiments.AnomalyConfig{
		Trials: *trials,
		Sizes:  mustParseSizes(*sizes),
		Seed:   *seed,
	}, experiments.Exec{Workers: *workers}), *csv, *json)
}

func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchmarks := fs.Int("benchmarks", 2000, "benchmarks per task-set size")
	sizes := fs.String("sizes", "4,8,12,16,20", "comma-separated task-set sizes")
	seed := fs.Int64("seed", 1, "random seed")
	workers := workersFlag(fs)
	csv, json := outputFlags(fs)
	fs.Parse(args)
	emit(experiments.Compare(experiments.CompareConfig{
		Benchmarks: *benchmarks,
		Sizes:      mustParseSizes(*sizes),
		Seed:       *seed,
	}, experiments.Exec{Workers: *workers}), *csv, *json)
}

// remotePost sends one canonical request to a daemon or gateway,
// resending 429-shed attempts (honoring Retry-After) up to maxRetries,
// and returns the canonical result bytes. Any other non-200 prints the
// error envelope and exits — the same treatment the job commands give.
func remotePost(addr, path string, body []byte, maxRetries int) []byte {
	url := strings.TrimRight(addr, "/") + path
	status, b, err := postRetry(url, "application/json", body, maxRetries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched:", err)
		os.Exit(1)
	}
	if status != 200 {
		jobFail(statusLabel(status), b)
	}
	return b
}

// runAnalyze answers one /v1/analyze-shaped request from stdin — or,
// with -batch, one /v1/analyze/batch-shaped request ({"items":[...]})
// fanned out over the worker pool. By default it computes in-process
// through the same service layer the daemon uses; -addr sends the
// request to a running daemon or gateway instead (the result bytes are
// identical either way), retrying shed 429s per -max-retries.
func runAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	workers := workersFlag(fs)
	batch := fs.Bool("batch", false, `treat stdin as a batch request ({"items":[...]}) and fan the items out over the worker pool`)
	addr := fs.String("addr", "", "daemon or gateway base URL (empty = compute in-process)")
	maxRetries := fs.Int("max-retries", defaultMaxRetries, "resend a 429-shed remote request this many times, honoring Retry-After")
	csv, jsonOut := outputFlags(fs)
	fs.Parse(args)
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched: read stdin:", err)
		os.Exit(1)
	}
	var b []byte
	switch {
	case *addr != "" && *batch:
		b = remotePost(*addr, "/v1/analyze/batch", body, *maxRetries)
	case *addr != "":
		b = remotePost(*addr, "/v1/analyze", body, *maxRetries)
	case *batch:
		svc := service.New(service.Config{Workers: *workers})
		if b, _, err = svc.AnalyzeBatch(context.Background(), body, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ctrlsched:", err)
			os.Exit(1)
		}
	default:
		svc := service.New(service.Config{Workers: *workers})
		if b, _, err = svc.Analyze(context.Background(), body); err != nil {
			fmt.Fprintln(os.Stderr, "ctrlsched:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		os.Stdout.Write(b)
		return
	}
	// The service returns canonical JSON; re-decode into the typed result
	// for the CSV/ASCII views.
	if *batch {
		var res service.BatchResult
		if err := json.Unmarshal(b, &res); err != nil {
			fmt.Fprintln(os.Stderr, "ctrlsched: decode result:", err)
			os.Exit(1)
		}
		emit(res, *csv, false)
		return
	}
	var res service.AnalyzeResult
	if err := json.Unmarshal(b, &res); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched: decode result:", err)
		os.Exit(1)
	}
	emit(res, *csv, false)
}

// runCodesign answers one /v1/codesign-shaped request from stdin through
// the same service layer the daemon uses: synthesize the candidate
// loops' sampling periods and the task set's priorities, minimizing
// total delay-aware LQG cost under schedulability and jitter-margin
// stability.
func runCodesign(args []string) {
	fs := flag.NewFlagSet("codesign", flag.ExitOnError)
	workers := workersFlag(fs)
	addr := fs.String("addr", "", "daemon or gateway base URL (empty = compute in-process)")
	maxRetries := fs.Int("max-retries", defaultMaxRetries, "resend a 429-shed remote request this many times, honoring Retry-After")
	csv, jsonOut := outputFlags(fs)
	fs.Parse(args)
	body, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched: read stdin:", err)
		os.Exit(1)
	}
	var b []byte
	if *addr != "" {
		b = remotePost(*addr, "/v1/codesign", body, *maxRetries)
	} else {
		svc := service.New(service.Config{Workers: *workers})
		if b, _, err = svc.Codesign(context.Background(), body, nil); err != nil {
			fmt.Fprintln(os.Stderr, "ctrlsched:", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		os.Stdout.Write(b)
		return
	}
	var res service.CodesignResult
	if err := json.Unmarshal(b, &res); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched: decode result:", err)
		os.Exit(1)
	}
	emit(res, *csv, false)
}

func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cfg := service.RegisterFlags(fs)
	fs.Parse(args)
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if err := service.Serve(*addr, *cfg, logf); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched:", err)
		os.Exit(1)
	}
}

func runAll() {
	fmt.Println("== Fig. 2 ==")
	experiments.Fig2Run(experiments.Fig2RunConfig{Points: 200}, experiments.Exec{}).Render(os.Stdout)
	fmt.Println("== Fig. 4 ==")
	fig4, err := experiments.Fig4Run(experiments.Fig4Config{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctrlsched:", err)
		os.Exit(1)
	}
	fig4.Render(os.Stdout)
	fmt.Println("== Table I (1000 benchmarks/size) ==")
	experiments.Table1(experiments.Table1Config{Benchmarks: 1000, DiagnoseRescues: true}, experiments.Exec{}).Render(os.Stdout)
	fmt.Println()
	fmt.Println("== Fig. 5 (1000 benchmarks/size) ==")
	experiments.Fig5(experiments.Fig5Config{Benchmarks: 1000}, experiments.Exec{}).Render(os.Stdout)
	fmt.Println()
	fmt.Println("== Anomaly frequency (2000 trials/size) ==")
	experiments.Anomalies(experiments.AnomalyConfig{Trials: 2000}, experiments.Exec{}).Render(os.Stdout)
	fmt.Println()
	fmt.Println("== Method comparison (500 benchmarks/size) ==")
	experiments.Compare(experiments.CompareConfig{Benchmarks: 500}, experiments.Exec{}).Render(os.Stdout)
}
