package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ctrlsched/internal/kmemo"
)

// counters is one reading of every counter the program exports, plus
// the benchmark's own per-replica call counts.
type counters struct {
	calls       [len(replicaNames)]int64
	resultHits  int64
	resultMiss  int64
	resultEvict int64
	storePuts   int64
	storeEvict  int64
	jobsRunning int64
	jobsDone    int64
	jobsFailed  int64
	journal     int64
	admitShed   int64
	gwShed      int64
	gwRetries   int64
	kmemo       kmemo.Stats
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	cpu         time.Duration
}

// replicaHealth is the subset of a replica's /healthz the benchmark
// reads.
type replicaHealth struct {
	Admission struct {
		Shed          int64 `json:"shed"`
		ShedPerClient int64 `json:"shed_per_client"`
	} `json:"admission"`
	ResultCache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"result_cache"`
	ResultStore struct {
		Puts      int64 `json:"puts"`
		Evictions int64 `json:"evictions"`
	} `json:"result_store"`
	Jobs struct {
		Running int64 `json:"running"`
		Done    int64 `json:"done"`
		Failed  int64 `json:"failed"`
	} `json:"jobs"`
	Journal struct {
		Appends int64 `json:"appends"`
	} `json:"journal"`
}

// gatewayHealth is the subset of the gateway's /healthz the benchmark
// reads.
type gatewayHealth struct {
	Admission struct {
		Shed          int64 `json:"shed"`
		ShedPerClient int64 `json:"shed_per_client"`
	} `json:"admission"`
	RetryBudget struct {
		Spent int64 `json:"spent"`
	} `json:"retry_budget"`
}

func readCounters(f *fleet) (counters, error) {
	var c counters
	for i, r := range f.reps {
		var h replicaHealth
		if err := f.getJSON(r.base+"/healthz", &h); err != nil {
			return c, fmt.Errorf("replica %d healthz: %w", i, err)
		}
		c.resultHits += h.ResultCache.Hits
		c.resultMiss += h.ResultCache.Misses
		c.resultEvict += h.ResultCache.Evictions
		c.storePuts += h.ResultStore.Puts
		c.storeEvict += h.ResultStore.Evictions
		c.jobsRunning += h.Jobs.Running
		c.jobsDone += h.Jobs.Done
		c.jobsFailed += h.Jobs.Failed
		c.journal += h.Journal.Appends
		c.admitShed += h.Admission.Shed + h.Admission.ShedPerClient
	}
	var g gatewayHealth
	if err := f.getJSON(f.gwURL+"/healthz", &g); err != nil {
		return c, fmt.Errorf("gateway healthz: %w", err)
	}
	c.gwShed = g.Admission.Shed + g.Admission.ShedPerClient
	c.gwRetries = g.RetryBudget.Spent
	for i := range c.calls {
		c.calls[i] = f.up.calls[i].Load()
	}
	c.kmemo = kmemo.Default().Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcCycles = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, nil
}

// settledCounters reads the counters once no job is running: a job's
// client sees its result before the engine journals its end and counts
// it done, so an early reading would race the last jobs' bookkeeping.
func settledCounters(f *fleet) (counters, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := readCounters(f)
		if err != nil || c.jobsRunning == 0 {
			return c, err
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("%d jobs still running 10s after the count phase", c.jobsRunning)
		}
		time.Sleep(time.Millisecond)
	}
}

// countMetric describes one count metric. Exact counts repeat exactly
// between runs of one seed; the rest depend on GC timing, scheduling,
// or (kmemo.hits on codesign_cold) on how often concurrent evaluations
// coalesce onto one kernel computation.
type countMetric struct {
	unit  string
	exact bool
}

var countDefs = map[string]countMetric{
	"gateway.calls_r0":             {"count", true},
	"gateway.calls_r1":             {"count", true},
	"gateway.calls_per_req":        {"calls/req", true},
	"client.resp_kb_per_req":       {"KiB/req", false}, // job status documents carry IDs and timestamps
	"service.result_hits":          {"count", true},
	"service.result_misses":        {"count", true},
	"service.result_evictions":     {"count", true},
	"kmemo.hits":                   {"count", false},
	"kmemo.misses":                 {"count", true},
	"kmemo.evictions":              {"count", true},
	"codesign.evaluations_per_req": {"evals/req", true},
	"jobs.done":                    {"count", true},
	"jobs.failed":                  {"count", true},
	"journal.appends":              {"count", true},
	"store.puts":                   {"count", true},
	"store.evictions":              {"count", true},
	"gateway.shed":                 {"count", true},
	"gateway.retries":              {"count", true},
	"admit.shed":                   {"count", true},
	"go.allocs_per_item":           {"allocs/item", false},
	"go.alloc_kb_per_item":         {"KiB/item", false},
	"go.gc_cycles":                 {"count", false},
	"process.cpu_ms_per_item":      {"ms/item", false},
}

// countMetrics turns two counter readings around reqs requests carrying
// items items into the count metrics.
func countMetrics(a, b counters, reqs, items, evals int, respBytes int64) map[string]float64 {
	perReq := func(v float64) float64 { return v / float64(reqs) }
	perItem := func(v float64) float64 { return v / float64(items) }
	return map[string]float64{
		"gateway.calls_r0":             float64(b.calls[0] - a.calls[0]),
		"gateway.calls_r1":             float64(b.calls[1] - a.calls[1]),
		"gateway.calls_per_req":        perReq(float64(b.calls[0] - a.calls[0] + b.calls[1] - a.calls[1])),
		"client.resp_kb_per_req":       perReq(float64(respBytes) / 1024),
		"service.result_hits":          float64(b.resultHits - a.resultHits),
		"service.result_misses":        float64(b.resultMiss - a.resultMiss),
		"service.result_evictions":     float64(b.resultEvict - a.resultEvict),
		"kmemo.hits":                   float64(b.kmemo.Hits - a.kmemo.Hits),
		"kmemo.misses":                 float64(b.kmemo.Misses - a.kmemo.Misses),
		"kmemo.evictions":              float64(b.kmemo.Evictions - a.kmemo.Evictions),
		"codesign.evaluations_per_req": perReq(float64(evals)),
		"jobs.done":                    float64(b.jobsDone - a.jobsDone),
		"jobs.failed":                  float64(b.jobsFailed - a.jobsFailed),
		"journal.appends":              float64(b.journal - a.journal),
		"store.puts":                   float64(b.storePuts - a.storePuts),
		"store.evictions":              float64(b.storeEvict - a.storeEvict),
		"gateway.shed":                 float64(b.gwShed - a.gwShed),
		"gateway.retries":              float64(b.gwRetries - a.gwRetries),
		"admit.shed":                   float64(b.admitShed - a.admitShed),
		"go.allocs_per_item":           perItem(float64(b.mallocs - a.mallocs)),
		"go.alloc_kb_per_item":         perItem(float64(b.allocBytes-a.allocBytes) / 1024),
		"go.gc_cycles":                 float64(b.gcCycles - a.gcCycles),
		"process.cpu_ms_per_item":      perItem(float64(b.cpu-a.cpu) / 1e6),
	}
}

// spanMetrics reduces a traced run's spans to the per-layer latency
// metrics, in milliseconds. A job-phase metric is 0 on a workload with
// no jobs.
func spanMetrics(spans []span) (map[string]float64, error) {
	ms := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x / 1e6
		}
		return out
	}
	handler := ms(durations(spans, spanHandler))
	p99, err := percentile(handler, 0.99)
	if err != nil {
		return nil, fmt.Errorf("service.handler_ms_p99: %w", err)
	}
	return map[string]float64{
		"gateway.self_ms_p50":      median(ms(selfTimes(spans, spanGateway))),
		"gateway.transport_ms_p50": median(ms(transportTimes(spans))),
		"service.handler_ms_p50":   median(handler),
		"service.handler_ms_p99":   p99,
		"jobs.submit_ms_p50":       median(ms(durations(spans, spanSubmit))),
		"jobs.wait_ms_p50":         median(ms(durations(spans, spanWait))),
		"jobs.result_ms_p50":       median(ms(durations(spans, spanResult))),
	}, nil
}
