package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/service"
)

// gcPercent is the collector's target for the process. The two
// replicas and the gateway share one heap here, where a deployed fleet
// runs three processes, each collecting no more often than the
// runtime's 4 MB minimum heap goal allows. GOGC=300 triples that
// minimum for the shared heap; at the default, this fleet's few-MB live
// heap would be collected every few milliseconds, three times as often
// as the processes it stands in for.
const gcPercent = 300

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	dir      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every request is derived from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1: trace the measured phase and report per-layer metrics; 0: report end-to-end metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "run"), "directory for the replicas' stores, journals and span files")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "fleetbench: unknown workload %q (have: %s)\n", *name, workloadNames())
		return options{}, errUnknownWorkload
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "fleetbench: need -seconds > 0 and -trace 0|1")
		return options{}, errors.New("bad flags")
	}
	return options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	rep, err := benchmark(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally is what one client's requests in one phase added up to. The
// per-request records go to an off-heap responseLog, so a tally's heap
// footprint stays flat however many requests run.
type tally struct {
	attempted, failed, bad int
	items                  int    // verified items
	itemsBy                [2]int // verified items of untraced, traced requests
	evals                  int
	respBytes              int64
	firstErr               error
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.bad += o.bad
	t.items += o.items
	t.itemsBy[0] += o.itemsBy[0]
	t.itemsBy[1] += o.itemsBy[1]
	t.evals += o.evals
	t.respBytes += o.respBytes
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// segments is how many fresh fleets the measured phase is split
// across. Each segment replays the same request sequence from a new
// set-up, so every segment is equal work from an equal state, and no
// part of a run measures a fleet whose store or caches a longer run
// would have grown further.
const segments = 6

// segment is one measured segment's outcome.
type segment struct {
	tallies [nClients]*tally
	wall    time.Duration
	windows [2]time.Duration // untraced, traced window time
	heap    uint64           // live heap after GC at the segment's end
}

func benchmark(opt options, log io.Writer) (*report, error) {
	w := opt.workload
	root, err := filepath.Abs(filepath.Join(opt.dir, fmt.Sprintf("%s-%d-%d", w.name, opt.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("run directory: %w", err)
	}
	defer os.RemoveAll(root)
	fmt.Fprintln(log, "# env", envStamp(opt, root))

	ctx := context.Background()
	tr := newTracer()
	defer tr.free()

	// The count phase runs first, on a fleet of its own: besides fixing
	// the counts, its second or more of load brings the host's CPUs to
	// speed before anything is timed.
	f, err := setupFleet(ctx, filepath.Join(root, "count"), w, opt.seed, tr)
	if err != nil {
		return nil, err
	}
	counts, err := countPhase(ctx, f, w, opt.seed, w.countPer, tr)
	f.close()
	if err != nil {
		return nil, fmt.Errorf("count phase: %w", err)
	}
	printCounts(log, counts)

	// Measured segments, each on a fleet set up (and timed) afresh.
	var logs [nClients]*responseLog
	for c := range logs {
		if logs[c], err = newResponseLog(); err != nil {
			return nil, err
		}
		defer logs[c].free()
	}
	segs := make([]segment, segments)
	setup := make([]float64, segments)
	d := time.Duration(opt.seconds * float64(time.Second) / segments)
	for k := range segs {
		start := time.Now()
		f, err := setupFleet(ctx, filepath.Join(root, fmt.Sprintf("segment-%d", k)), w, opt.seed, tr)
		if err != nil {
			return nil, err
		}
		setup[k] = time.Since(start).Seconds()
		segs[k] = measure(ctx, f, w, opt.seed, d, opt.trace, tr, &logs)
		f.close()
	}
	fmt.Fprintf(log, "# setup_s %v\n", setup)

	var total tally
	var rates, heaps []float64
	var wall time.Duration
	var windows [2]time.Duration
	for _, sg := range segs {
		var t tally
		for _, ct := range sg.tallies {
			t.add(ct)
		}
		total.add(&t)
		rates = append(rates, float64(t.items)/sg.wall.Seconds())
		heaps = append(heaps, float64(sg.heap)/(1<<20))
		wall += sg.wall
		windows[0] += sg.windows[0]
		windows[1] += sg.windows[1]
	}
	fmt.Fprintf(log, "# segments items/s %.6g live heap MB %.4g\n", rates, heaps)
	if total.firstErr != nil {
		fmt.Fprintf(log, "# first failure: %v\n", total.firstErr)
	}
	var lats []float64
	for _, l := range logs {
		l.each(func(ms float64, _, _ int, _ [32]byte) { lats = append(lats, ms) })
	}
	attempted, failed := total.attempted, total.failed
	if attempted == 0 {
		return nil, errors.New("no request completed in the measured phase")
	}
	if len(lats) != attempted {
		return nil, fmt.Errorf("%d latencies recorded for %d requests", len(lats), attempted)
	}
	mismatches, checked, err := verify(ctx, w, opt.seed, logs)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	fmt.Fprintf(log, "# samples %d attempted, %d failed, %d checked against a direct replica, %d mismatched\n",
		attempted, failed, checked, mismatches)
	rep := &report{Correct: total.bad == 0 && mismatches == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}

	if !opt.trace {
		p50, err := percentile(lats, 0.50)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(lats, 0.99)
		if err != nil {
			return nil, err
		}
		if math.IsInf(p99, 1) {
			return nil, fmt.Errorf("p99 is a failed request: %d of %d requests failed", failed, attempted)
		}
		rep.Metrics["items_s"] = metric{float64(total.items) / wall.Seconds(), "items/s"}
		rep.Metrics["p50_ms"] = metric{p50, "ms"}
		rep.Metrics["p99_ms"] = metric{p99, "ms"}
		rep.Metrics["success_ratio"] = metric{float64(attempted-failed) / float64(attempted), "ratio"}
		rep.Metrics["setup_s"] = metric{median(setup), "s"}
		rep.Metrics["live_heap_mb"] = metric{median(heaps), "MB"}
		return rep, nil
	}

	for name, v := range counts {
		rep.Metrics[name] = metric{v, countDefs[name].unit}
	}
	spans, err := tr.snapshot()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(opt.dir, fmt.Sprintf("spans-%s-%d.json", w.name, opt.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# %d spans written to %s\n", len(spans), path)
	sm, err := spanMetrics(spans)
	if err != nil {
		return nil, err
	}
	for name, v := range sm {
		rep.Metrics[name] = metric{v, "ms"}
	}
	if total.itemsBy[0] == 0 || total.itemsBy[1] == 0 {
		return nil, errors.New("traced run needs items in both traced and untraced windows")
	}
	untraced := float64(total.itemsBy[0]) / windows[0].Seconds()
	traced := float64(total.itemsBy[1]) / windows[1].Seconds()
	rep.Metrics["trace.overhead_pct"] = metric{100 * (untraced/traced - 1), "%"}
	return rep, nil
}

// setupFleet builds a fleet in dir from a cold kernel cache, waits
// until it is ready, warms it up and runs a GC.
func setupFleet(ctx context.Context, dir string, w *workload, seed int64, tr *tracer) (*fleet, error) {
	kmemo.Default().Reset()
	f, err := newFleet(dir, tr)
	if err != nil {
		return nil, err
	}
	if err := f.ready(ctx); err != nil {
		f.close()
		return nil, err
	}
	if err := warm(ctx, f, w, seed, tr); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	return f, nil
}

// warm sends the workload's preload and warm-up requests through the
// gateway and requires every one to succeed.
func warm(ctx context.Context, f *fleet, w *workload, seed int64, tr *tracer) error {
	c := newClient(0, f.gwURL, newHTTPClient(), tr)
	defer c.http.CloseIdleConnections()
	var reqs []request
	if w.preload != nil {
		reqs = w.preload(seed)
	}
	for n := 0; n < w.warmup; n++ {
		reqs = append(reqs, w.gen(seed, n))
	}
	for _, r := range reqs {
		if out := w.exec(ctx, c, r); out.err != nil {
			return out.err
		}
	}
	return nil
}

func newHTTPClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = nClients
	return &http.Client{Transport: t, Timeout: 2 * time.Minute}
}

// runClients drives the closed-loop clients: client c sends its
// requests i = 0, 1, … for as long as next(c, i) allows, one at a time,
// and records each in logs[c] when logs is non-nil.
func runClients(ctx context.Context, f *fleet, w *workload, seed int64, tr *tracer, logs *[nClients]*responseLog,
	next func(c, i int) (ok, traced bool)) [nClients]*tally {
	var out [nClients]*tally
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		out[c] = &tally{}
		wg.Add(1)
		go func(c int, t *tally) {
			defer wg.Done()
			cl := newClient(c, f.gwURL, newHTTPClient(), tr)
			defer cl.http.CloseIdleConnections()
			slot := &tr.clients[c]
			for i := 0; ; i++ {
				ok, traced := next(c, i)
				if !ok {
					return
				}
				r := w.gen(seed, requestNumber(w, c, i))
				slot.request.Store(int64(i))
				slot.traced.Store(traced)
				start := time.Now()
				var o outcome
				if traced {
					t0 := tr.now()
					o = w.exec(ctx, cl, r)
					tr.record(spanClient, c, -1, t0)
				} else {
					o = w.exec(ctx, cl, r)
				}
				ms := float64(time.Since(start)) / 1e6
				slot.traced.Store(false)

				t.attempted++
				t.respBytes += o.bytes
				if o.err != nil {
					t.failed++
					if o.bad {
						t.bad++
					}
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("client %d request %d: %w", c, i, o.err)
					}
					ms = math.Inf(1)
				} else {
					t.items += r.items
					if traced {
						t.itemsBy[1] += r.items
					} else {
						t.itemsBy[0] += r.items
					}
					t.evals += o.evals
				}
				if logs != nil {
					if err := logs[c].add(ms, i, o.status, o.sum); err != nil {
						t.firstErr = err
						return
					}
				}
			}
		}(c, out[c])
	}
	wg.Wait()
	return out
}

// traceWindow is the length of the windows a traced run alternates
// between: one untraced window, then two traced ones. Alternating
// keeps cache fill and store growth from biasing the overhead estimate
// toward either mode; tracing two windows in three collects enough
// replica handler spans on codesign_cold for a valid p99.
const traceWindow = 500 * time.Millisecond

func tracedWindow(k int) bool { return k%3 != 0 }

// measure runs one measured segment of length d on f: the clients send
// requests until d has passed, and the last ones complete. In a traced
// run, requests that start in a traced window are traced.
func measure(ctx context.Context, f *fleet, w *workload, seed int64, d time.Duration, trace bool, tr *tracer, logs *[nClients]*responseLog) segment {
	start := time.Now()
	end := start.Add(d)
	var sg segment
	sg.tallies = runClients(ctx, f, w, seed, tr, logs, func(c, i int) (bool, bool) {
		now := time.Now()
		if !now.Before(end) {
			return false, false
		}
		return true, trace && tracedWindow(int(now.Sub(start)/traceWindow))
	})
	sg.wall = time.Since(start)
	for t := time.Duration(0); t < d; t += traceWindow {
		k := 0
		if trace && tracedWindow(int(t/traceWindow)) {
			k = 1
		}
		sg.windows[k] += min(traceWindow, d-t)
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so only live state is counted.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sg.heap = ms.HeapAlloc
	return sg
}

// countPhase sends a fixed number of requests per client on a freshly
// warmed fleet and returns the counter deltas. The inputs and the state
// they meet are fixed by the seed, so the counts repeat exactly.
func countPhase(ctx context.Context, f *fleet, w *workload, seed int64, per int, tr *tracer) (map[string]float64, error) {
	before, err := readCounters(f)
	if err != nil {
		return nil, err
	}
	tallies := runClients(ctx, f, w, seed, tr, nil, func(c, i int) (bool, bool) { return i < per, false })
	after, err := settledCounters(f)
	if err != nil {
		return nil, err
	}
	var t tally
	for _, ct := range tallies {
		t.add(ct)
	}
	if t.firstErr != nil {
		return nil, t.firstErr
	}
	return countMetrics(before, after, t.attempted, t.items, t.evals, t.respBytes), nil
}

// verify recomputes a deterministic sample of the measured requests
// through a fresh replica called directly (no gateway, no listener),
// from a cold kernel cache, and compares its response bytes with every
// successful response the fleet gave to that request.
func verify(ctx context.Context, w *workload, seed int64, logs [nClients]*responseLog) (mismatches, checked int, err error) {
	kmemo.Default().Reset()
	ref := service.New(serviceDefaults()).Handler()
	refSums := make(map[int][32]byte) // request number -> reference digest
	for c, l := range logs {
		l.each(func(ms float64, i, _ int, got [32]byte) {
			if err != nil || math.IsInf(ms, 1) || !sampled(i) {
				return
			}
			n := requestNumber(w, c, i)
			want, ok := refSums[n]
			if !ok {
				req := w.gen(seed, n)
				hr := httptest.NewRequest(http.MethodPost, req.refPath, bytes.NewReader(req.refBody)).WithContext(ctx)
				hr.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				ref.ServeHTTP(rec, hr)
				if rec.Code != http.StatusOK {
					err = fmt.Errorf("reference for request %d: status %d: %s", n, rec.Code, truncate(rec.Body.Bytes(), 200))
					return
				}
				want = sha256.Sum256(rec.Body.Bytes())
				refSums[n] = want
			}
			checked++
			if got != want {
				mismatches++
			}
		})
	}
	if err != nil {
		return 0, 0, err
	}
	if checked == 0 {
		return 0, 0, errors.New("no successful request to verify")
	}
	return mismatches, checked, nil
}

// sampled picks the request indices whose bytes are recomputed: the
// first few, then a sparse deterministic spread.
func sampled(i int) bool { return i < 4 || (i%97 == 0 && i < 2000) }

// envStamp describes the host; figures from different stamps must not
// be compared.
func envStamp(opt options, dir string) string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d gogc=%d cpu=%q go=%s store_fs=%s fsync=elided",
		opt.workload.name, opt.seed, opt.seconds, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), gcPercent, cpuModel(), runtime.Version(), fsType(dir))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func printCounts(log io.Writer, counts map[string]float64) {
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "# count %s %v %s\n", n, counts[n], countDefs[n].unit)
	}
}
