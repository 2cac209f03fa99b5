// Package ctrlsched_bench holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the reproduced paper
// (Aminifar & Bini, DATE 2017), plus ablation benches for the design
// choices the README's "Benchmarks" section describes. Run with:
//
//	go test -bench=. -benchmem .
//
// The benchmarks exercise reduced-size campaigns so a full -bench pass
// stays in CPU-minutes; the CLI (cmd/ctrlsched) runs the paper-scale
// versions.
//
// # Parallel scaling
//
// Campaigns run on the internal/campaign worker pool. The
// worker-scaling benches (BenchmarkTable1Workers and friends) pin the
// pool size per sub-benchmark, so
//
//	go test -bench=Workers .
//
// reports the speedup curve directly — compare workers=1 against
// workers=4 for the campaign-level parallel speedup (results are
// identical at every worker count; only the wall-clock changes). The
// standard -cpu flag varies GOMAXPROCS instead, which caps how many
// pool workers can actually run:
//
//	go test -bench=BenchmarkTable1$ -cpu 1,2,4 .
//
// shows the same scaling for the default (all-CPU) pool as the
// scheduler grants it more cores.
package ctrlsched_bench

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ctrlsched/internal/assign"
	"ctrlsched/internal/codesign"
	"ctrlsched/internal/cosim"
	"ctrlsched/internal/experiments"
	"ctrlsched/internal/gateway"
	"ctrlsched/internal/jitter"
	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/lqg"
	"ctrlsched/internal/plant"
	"ctrlsched/internal/rta"
	"ctrlsched/internal/service"
	"ctrlsched/internal/taskgen"
)

// sharedGen reuses one jitter-margin coefficient cache across benches.
var sharedGen = taskgen.NewGenerator(taskgen.Config{})

// BenchmarkFig2 regenerates the Fig. 2 sweep (LQG cost vs sampling
// period with pathological spikes) at reduced resolution.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(plant.HarmonicOscillator(10), 0.05, 1.0, 100)
		if res.FiniteSamples == 0 {
			b.Fatal("no finite samples")
		}
	}
}

// BenchmarkFig2Point measures a single cost evaluation, the kernel of the
// sweep.
func BenchmarkFig2Point(b *testing.B) {
	p := plant.DCServo()
	for i := 0; i < b.N; i++ {
		lqg.Cost(p, 0.006)
	}
}

// BenchmarkFig4 regenerates the stability curves and linear bounds.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Margin measures one jitter-margin analysis (the Fig. 4
// kernel and the dominant cost of benchmark generation).
func BenchmarkFig4Margin(b *testing.B) {
	d, err := lqg.Synthesize(plant.DCServo(), 0.006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jitter.Analyze(d, jitter.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 runs a reduced Table I campaign (200 benchmarks per
// size at n ∈ {4, 12, 20}).
func BenchmarkTable1(b *testing.B) {
	sharedGen.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(experiments.Table1Config{
			Benchmarks: 200,
			Sizes:      []int{4, 12, 20},
			Seed:       int64(i + 1),
		}, experiments.Exec{Gen: experiments.Fixed(sharedGen)})
	}
}

// BenchmarkTable1Workers pins the campaign pool size to measure the
// parallel speedup of the hottest path in the repo. The acceptance
// target is ≥2× wall-clock at workers=4 over workers=1.
func BenchmarkTable1Workers(b *testing.B) {
	sharedGen.Warm()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Table1(experiments.Table1Config{
					Benchmarks: 200,
					Sizes:      []int{4, 12, 20},
					Seed:       1,
				}, experiments.Exec{Workers: w, Gen: experiments.Fixed(sharedGen)})
			}
		})
	}
}

// BenchmarkTable1Job is the campaign one fleet table1_jobs job runs: 96
// benchmarks at each of n ∈ {4, 8} (one random task set and one Unsafe
// Quadratic search each) on one worker against the warm shared
// generator, so task draws and exact response-time evaluations are what
// is measured.
func BenchmarkTable1Job(b *testing.B) {
	sharedGen.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(experiments.Table1Config{
			Benchmarks: 96,
			Sizes:      []int{4, 8},
			Seed:       int64(i + 1),
		}, experiments.Exec{Workers: 1, Gen: experiments.Fixed(sharedGen)})
	}
}

// BenchmarkCompareWorkers is the scaling bench for the heaviest
// per-benchmark workload (four assignment methods per instance).
func BenchmarkCompareWorkers(b *testing.B) {
	sharedGen.Warm()
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.Compare(experiments.CompareConfig{
					Benchmarks: 100,
					Sizes:      []int{8, 16},
					Seed:       1,
				}, experiments.Exec{Workers: w, Gen: experiments.Fixed(sharedGen)})
			}
		})
	}
}

// BenchmarkFig5 runs a reduced Fig. 5 campaign (the runtime comparison
// itself; its absolute numbers are what Fig. 5 plots).
func BenchmarkFig5(b *testing.B) {
	sharedGen.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(experiments.Fig5Config{
			Benchmarks: 100,
			Sizes:      []int{4, 12, 20},
			Seed:       int64(i + 1),
		}, experiments.Exec{Gen: experiments.Fixed(sharedGen)})
		if len(res.Rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkAssignBacktracking20 measures Algorithm 1 on paper-maximum
// task sets (n = 20) — the paper's "less than 2 seconds" claim is about
// this operation over a campaign.
func BenchmarkAssignBacktracking20(b *testing.B) {
	sharedGen.Warm()
	rng := rand.New(rand.NewSource(9))
	tasks20 := sharedGen.TaskSet(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.Backtracking(tasks20)
	}
}

// BenchmarkAssignUnsafeQuadratic20 is the baseline counterpart.
func BenchmarkAssignUnsafeQuadratic20(b *testing.B) {
	sharedGen.Warm()
	rng := rand.New(rand.NewSource(9))
	tasks20 := sharedGen.TaskSet(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.UnsafeQuadratic(tasks20)
	}
}

// Ablation: the failed-set memo of the backtracking search (the
// README's "Benchmarks" section; the paper's Algorithm 1 does not
// memoize) on a 16-task generator set. With the memo a candidate set
// whose subtree failed once is never searched again; the search keeps
// its DFS order, so the memo costs only its map where nothing fails.
func BenchmarkAblationBacktrackingMemoized(b *testing.B) {
	sharedGen.Warm()
	rng := rand.New(rand.NewSource(10))
	tasks := sharedGen.TaskSet(rng, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.BacktrackingOpts(tasks, assign.Options{Memoize: true})
	}
}

// BenchmarkAnalyzeWorstCase is the slowest single /v1/analyze known: 20
// tasks of which the fifth and sixth are stable only at the top level,
// so no assignment exists, nothing short of the search sees it, and the
// memoized search runs until assign.SearchBudget evaluations are spent.
// Every iteration renames a task, so the result cache never answers.
// One op is the wall time the budget lets a single analyze take.
func BenchmarkAnalyzeWorstCase(b *testing.B) {
	s := service.New(service.Config{})
	body := func(i int) []byte {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"tasks":[`)
		for k := 0; k < 20; k++ {
			h, bcet, wcet, conB := 0.010+0.001*float64(k), 0.0002, 0.0004, 0.010+0.001*float64(k)
			if k == 4 || k == 5 {
				bcet, conB = 0.0004, 0.0004
			}
			if k > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"name":"t%d-%d","bcet":%g,"wcet":%g,"period":%g,"con_a":1,"con_b":%g}`, k, i, bcet, wcet, h, conB)
		}
		buf.WriteString(`]}`)
		return buf.Bytes()
	}
	res, _, err := s.Analyze(context.Background(), body(-1))
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Contains(res, []byte(`"aborted":true`)) {
		b.Fatalf("the worst case no longer exhausts the budget: %s", res)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := s.Analyze(context.Background(), body(i)); err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkRTAAnalyzeAll20 measures one full-task-set exact analysis
// (n = 20), the innermost kernel of every assignment search and batch
// query; its one allocation per op is the result slice.
func BenchmarkRTAAnalyzeAll20(b *testing.B) {
	sharedGen.Warm()
	rng := rand.New(rand.NewSource(9))
	tasks := sharedGen.TaskSet(rng, 20)
	prio := make([]int, 20)
	for i := range prio {
		prio[i] = i + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rta.AnalyzeAll(tasks, prio)
	}
}

// BenchmarkRTAAnalyzeAllInto20 is the retained-result variant: appending
// into the previous call's result slice, it runs allocation-free.
func BenchmarkRTAAnalyzeAllInto20(b *testing.B) {
	sharedGen.Warm()
	rng := rand.New(rand.NewSource(9))
	tasks := sharedGen.TaskSet(rng, 20)
	prio := make([]int, 20)
	for i := range prio {
		prio[i] = i + 1
	}
	var out []rta.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = rta.AnalyzeAllInto(tasks, prio, out)
	}
}

// benchPeriod hands every benchmark item a distinct sampling period, so
// the service cache cannot short-circuit the work being measured.
var benchPeriod atomic.Int64

func nextBenchPeriod() float64 {
	return 0.004 + float64(benchPeriod.Add(1))*1e-8
}

// benchBatchItems builds n fresh plant-analysis items (the heaviest
// analyze kernel: LQG synthesis plus a jitter-margin sweep each).
func benchBatchItems(n int) []string {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf(`{"plant":"dc-servo","period":%g}`, nextBenchPeriod())
	}
	return items
}

func benchPost(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	var sink [4096]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
}

// BenchmarkAnalyzeSequential64 is the baseline of the batch acceptance
// target: 64 fresh plant analyses as 64 sequential /v1/analyze round
// trips. Every item is distinct, so nothing is served from the cache.
func BenchmarkAnalyzeSequential64(b *testing.B) {
	s := service.New(service.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, item := range benchBatchItems(64) {
			benchPost(b, srv.URL+"/v1/analyze", []byte(item))
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkAnalyzeBatch64 answers the same 64 fresh items as one
// /v1/analyze/batch request, fanned out over the worker pool. The
// acceptance target is ≥2× the sequential throughput at N=64 on
// multicore hardware (single-core machines see only the round-trip
// saving; determinism is pinned by the service tests either way).
func BenchmarkAnalyzeBatch64(b *testing.B) {
	s := service.New(service.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := []byte(`{"items":[` + strings.Join(benchBatchItems(64), ",") + `]}`)
		benchPost(b, srv.URL+"/v1/analyze/batch", body)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkGatewayBatch64 prices the gateway hop of a batch: one 64-item
// /v1/analyze/batch request through gateway.New in front of two
// in-process replicas. The items are 48 plant queries over every library
// plant and 16 plantless task sets, so the batch splits across both
// replicas; one request before the timer puts every item in its owner's
// result LRU, so the replicas' envelopes, the gateway's merge and the
// transport are what is measured.
func BenchmarkGatewayBatch64(b *testing.B) {
	plants := []string{"dc-servo", "inverted-pendulum", "double-integrator", "stable-lag", "fast-servo"}
	items := make([]string, 0, 64)
	for i := 0; i < 48; i++ {
		items = append(items, fmt.Sprintf(`{"plant":%q,"period":%g}`, plants[i%len(plants)], 0.004+float64(i/len(plants))*0.0005))
	}
	for i := 0; i < 16; i++ {
		items = append(items, fmt.Sprintf(`{"tasks":[{"bcet":0.001,"wcet":0.002,"period":%g},{"bcet":0.002,"wcet":0.004,"period":0.05}]}`, 0.01+float64(i)*0.001))
	}
	body := []byte(`{"items":[` + strings.Join(items, ",") + `]}`)

	var urls []string
	var batches [2]atomic.Int64
	for i := range batches {
		h := service.New(service.Config{}).Handler()
		calls := &batches[i]
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/analyze/batch" {
				calls.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	g, err := gateway.New(gateway.Options{Replicas: urls})
	if err != nil {
		b.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	benchPost(b, gw.URL+"/v1/analyze/batch", body) // warm both result LRUs outside the timer
	if batches[0].Load() != 1 || batches[1].Load() != 1 {
		b.Fatalf("batch did not split across both replicas: %d / %d sub-batches", batches[0].Load(), batches[1].Load())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, gw.URL+"/v1/analyze/batch", body)
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "items/s")
}

// benchCodesignOnce runs one reduced co-design synthesis: one candidate
// loop over a five-period grid on top of an interference task, with a
// short validation horizon so the kernel work (syntheses, margins,
// delay-aware costs) dominates over the co-simulation.
func benchCodesignOnce(b *testing.B) {
	b.Helper()
	base := []codesign.BaseTask{{Task: rta.Task{
		Name: "interference", BCET: 0.002, WCET: 0.004, Period: 0.050,
	}}}
	loops := []codesign.LoopSpec{{
		Name: "servo", Plant: plant.DCServo(),
		BCET: 0.0005, WCET: 0.001,
		Periods: []float64{0.006, 0.008, 0.010, 0.012, 0.014},
	}}
	res, err := codesign.Run(base, loops, codesign.Options{
		MaxIters: 2, Horizon: 0.2, SubSteps: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if !res.Feasible {
		b.Fatal("bench scenario infeasible")
	}
}

// BenchmarkCodesign is the engine-level co-design bench (the PR 4
// engine previously had no top-level bench). It runs with whatever the
// process-wide kernel cache holds, like a daemon serving traffic.
func BenchmarkCodesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchCodesignOnce(b)
	}
}

// BenchmarkCodesignCold clears the process-wide kernel cache before
// every run: every synthesis, margin, and delay-aware cost is computed
// fresh — the pre-kmemo behavior.
func BenchmarkCodesignCold(b *testing.B) {
	defer kmemo.Default().Reset()
	for i := 0; i < b.N; i++ {
		kmemo.Default().Reset()
		benchCodesignOnce(b)
	}
}

// BenchmarkCodesignWarm re-runs the same synthesis against a warm
// kernel cache — the alternating optimizer's cross-request reuse case.
// The acceptance target is ≥3× over BenchmarkCodesignCold.
func BenchmarkCodesignWarm(b *testing.B) {
	kmemo.Default().Reset()
	benchCodesignOnce(b) // warm the cache outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCodesignOnce(b)
	}
}

// BenchmarkCosimLoop measures one single-loop co-simulation — the
// kernel of the co-design engine's empirical passes. Allocs/op is part
// of the contract: the RK4 integrator and controller update run on a
// reusable workspace instead of allocating per sub-step.
func BenchmarkCosimLoop(b *testing.B) {
	d, err := lqg.Synthesize(plant.DCServo(), 0.006)
	if err != nil {
		b.Fatal(err)
	}
	lp := cosim.Loop{
		Task: rta.Task{
			Name: "servo", BCET: 0.0003, WCET: 0.0006, Period: 0.006,
			ConA: 1, ConB: 0.006,
		},
		Design: d,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cosim.Run([]cosim.Loop{lp}, []int{1}, cosim.Config{Horizon: 1, Seed: 1, SubSteps: 10})
		if err != nil {
			b.Fatal(err)
		}
		if res.Loops[0].Diverged() {
			b.Fatal("bench loop diverged")
		}
	}
}

// benchSharedPeriods is the shared (plant, period) working set of the
// batch warm/cold benches: 8 distinct margins serve 64 items.
var benchSharedPeriods = []float64{0.005, 0.006, 0.007, 0.008, 0.009, 0.010, 0.011, 0.012}

// benchSharedBatchBody builds one 64-item batch whose items share the 8
// (plant, period) pairs at the kernel level but are all distinct at the
// service level (unique task names), so the service result-LRU never
// short-circuits the kernel work and the kernel cache is what is
// measured.
func benchSharedBatchBody() []byte {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf(
			`{"tasks":[{"name":"t%d","plant":"dc-servo","bcet":0.0005,"wcet":0.001,"period":%g}]}`,
			benchPeriod.Add(1), benchSharedPeriods[i%len(benchSharedPeriods)])
	}
	return []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
}

// BenchmarkAnalyzeBatch64SharedCold: 64 shared-plant items against an
// emptied kernel cache — every iteration re-synthesizes the 8 margins.
func BenchmarkAnalyzeBatch64SharedCold(b *testing.B) {
	s := service.New(service.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer kmemo.Default().Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kmemo.Default().Reset()
		benchPost(b, srv.URL+"/v1/analyze/batch", benchSharedBatchBody())
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkAnalyzeBatch64SharedWarm: the same items against a warm
// kernel cache — the margins are served from kmemo and only the
// response-time analysis and encoding remain. The acceptance target is
// ≥3× the cold throughput.
func BenchmarkAnalyzeBatch64SharedWarm(b *testing.B) {
	s := service.New(service.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	kmemo.Default().Reset()
	benchPost(b, srv.URL+"/v1/analyze/batch", benchSharedBatchBody()) // warm outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, srv.URL+"/v1/analyze/batch", benchSharedBatchBody())
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "items/s")
}

// BenchmarkAnalyzeHit is the service hot-path allocation bench: a
// cache-hit /v1/analyze served straight from the result LRU. Run with
// -benchmem; the asserted ceiling lives in
// internal/service TestAnalyzeHitPathAllocs.
func BenchmarkAnalyzeHit(b *testing.B) {
	s := service.New(service.Config{})
	raw := []byte(`{"plant":"dc-servo","period":0.006}`)
	if _, _, err := s.Analyze(context.Background(), raw); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := s.Analyze(context.Background(), raw); err != nil || !hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkJobSubmitHit measures the async job engine's per-job
// overhead on the fast path: submitting a job whose canonical result is
// already resident and waiting for the terminal state. This prices
// registration, runner dispatch, event bookkeeping, and the terminal
// transition — everything /v1/jobs adds on top of the cached compute.
func BenchmarkJobSubmitHit(b *testing.B) {
	s := service.New(service.Config{})
	raw := []byte(`{"plant":"dc-servo","period":0.006}`)
	if _, _, err := s.Analyze(context.Background(), raw); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := s.SubmitJob("analyze", raw)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Finished()
		if st := j.Status(); st.State != "done" {
			b.Fatalf("state %v", st.State)
		}
	}
}

// BenchmarkAnomalySearch measures the anomaly-frequency experiment.
func BenchmarkAnomalySearch(b *testing.B) {
	sharedGen.Warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Anomalies(experiments.AnomalyConfig{
			Trials: 500,
			Sizes:  []int{8},
			Seed:   int64(i + 1),
		}, experiments.Exec{Gen: experiments.Fixed(sharedGen)})
		if len(res.Rows) != 1 {
			b.Fatal("missing row")
		}
	}
}
