// Command fleetbench is the repository's end-to-end benchmark: it runs
// one traffic mix against an in-process ctrlsched fleet and prints
// every metric by name and unit, checking every response on the way.
//
//	bash fleetbench/run.sh --workload batch_mix --seed 1 --seconds 36 --trace 0
//
// run.sh builds this package from source (its own module, which
// replaces ctrlsched with the checkout it sits in) with the build cache
// under .bench_build/, then runs it from the checkout root. Stores,
// journals and span files go under .bench_build/run/.
//
// # The fleet
//
// One process holds two service.New replicas and a gateway.New in
// front of them, each served over its own loopback listener. Replicas
// take cmd/ctrlschedd's flag defaults, each with its durable store and
// job journal in a fresh directory; the gateway takes cmd/ctrlgw's flag
// defaults and runs its health loop. The gateway's ring places points
// by replica URL, so the replicas have fixed names (replicaNames) that
// the gateway's Options.Client dials to the real listeners: with
// ephemeral ports in the URLs, plant ownership would reshuffle on every
// run. The names put three library plants on one replica and two on
// the other, and both replicas own some of the ten plant pairs.
//
// Two closed-loop clients drive the load, each with at most one request
// in flight and its own X-Client: bench-<n> identity: the service's
// callers (ctrlsched analyze|codesign, job wait) block on replies, and
// the host has two CPUs.
//
// # One run
//
//  1. Count phase, on a fleet of its own: reset the process-wide kernel
//     cache, build a fleet in a fresh directory, wait until the gateway
//     reports both replicas ready, send the workload's warm-up, run a
//     GC; then each client sends a fixed number of requests, and counter
//     deltas around them are the count metrics. Inputs and state are
//     fixed by the seed, so the counts repeat exactly (except
//     allocation, GC and CPU figures, response sizes of job status
//     documents, and kmemo hits on codesign_cold, which count coalesced
//     joins of concurrent computations). Its load also brings the
//     host's CPUs up to speed before anything is timed.
//  2. Measured phase, in six segments of --seconds/6 each. Every
//     segment sets up a fresh fleet exactly as above, timed (setup_s is
//     the median of the six set-up times), then the clients send
//     requests from the start of the same sequence the count phase used
//     until the segment's time is up. Every response passes its
//     workload's check, and its latency, status and SHA-256 are
//     recorded. At the segment's end, after two collections, the live
//     heap is read.
//  3. Verification, untimed: every sampled request is recomputed by a
//     fresh service.Service called directly (no gateway, no listener)
//     from a cold kernel cache, and its bytes must equal what the fleet
//     returned in every segment.
//
// Every segment is equal work from an equal state: no part of a run
// measures a fleet whose store and caches a longer run would have
// grown further. The per-request records are kept outside the Go heap,
// and nothing else the benchmark keeps grows with the request count:
// the fleet's live heap is a few MB, so any retained byte would move
// the collector's pace and with it the throughput.
//
// The last line of standard output is a JSON object with correct,
// attempted, failed and metrics. A failed output check or a
// verification mismatch prints correct false and exits 1; a request
// that fails without a wrong output (a 429, a 5xx, a transport error)
// counts as failed and as +Inf latency. Lines before it, prefixed #,
// give the environment stamp, the set-up times, every count, and the
// sample counts.
//
// # Workloads
//
// The seed fixes every request. Request n of a run is a pure function
// of (seed, n); warm-up requests come first, then the clients'
// requests interleaved.
//
// batch_mix — POST /v1/analyze/batch, 64 items per batch in a fixed
// 3:1 mix, in a seeded order. 48 items come from a hot pool of the five
// library plants at 16 periods, walked in strides so every hot item
// recurs within two batches; the warm-up sends the whole pool, so these
// are result-cache hits. 16 items are never-seen 8-task sets over the
// same plants and periods: result-cache misses whose plant margins are
// kmemo hits, then backtracking and RTA. The gateway splits every batch
// across both replicas and merges the answers, and every sub-batch
// envelope is written to the store, so the batch path's split/merge,
// cache lookups and inserts, and store writes all run in a fixed
// proportion. Item: one batch item. Check: meta.items and the items
// array both hold 64 items, none an in-band error envelope.
//
// codesign_cold — POST /v1/codesign, each request a distinct two-loop
// search. Requests rotate through all ten library-plant pairs, and each
// scales both candidate period grids by its own factor, so no kernel
// result is shared between requests. Kernels, the codesign engine and
// the campaign fan-out do nearly all the work; the 8192-entry kmemo
// fills after about 200 searches, so its eviction path runs too. Item:
// one search. Check: meta.items equals evaluations.
//
// table1_jobs — POST /v1/jobs with a distinct-seed Table I campaign
// (96 benchmarks at sizes 4 and 8, about 5 ms of work), then
// GET /v1/jobs/{id}?stream=1 to the terminal event, then
// GET /v1/jobs/{id}/result. It is the only
// workload on the async job engine, the journal and the taskgen path,
// and on the gateway's round-robin submit and broadcast job lookup.
// Item: one campaign benchmark (meta.items, 192 per job). Checks: the
// submit answers 202 with an id, the stream ends in a result event,
// meta.items is 192; the verification compares job result bytes with
// the synchronous POST /v1/experiments/table1 bytes.
//
// # End-to-end metrics (--trace 0)
//
//	items_s        verified items per second over all segments
//	p50_ms, p99_ms client latency per request (a job: submit to result
//	               bytes), over all segments; failures count as +Inf;
//	               p99 needs at least 10 samples beyond it, or the run
//	               fails
//	success_ratio  requests that returned 2xx and passed their check,
//	               over requests attempted
//	setup_s        median set-up time (step 2)
//	live_heap_mb   heap in use after GC at the end of a segment, median
//	               over segments: the whole fleet, every cache included
//
// # Per-layer metrics (--trace 1)
//
// Counts come from the count phase: the replicas' and the gateway's
// /healthz blocks, kmemo.Default().Stats(), runtime.MemStats, getrusage,
// and the benchmark's own count of the gateway's outbound /v1/ calls per
// replica. Each names the end-to-end metric it should move:
//
//	gateway.calls_r0, gateway.calls_r1, gateway.calls_per_req,
//	client.resp_kb_per_req
//	    p50_ms and items_s on batch_mix (scatter fan-out, merged body
//	    size) and table1_jobs (broadcast lookups); predicted unmoved on
//	    codesign_cold.
//	service.result_hits, service.result_misses,
//	service.result_evictions, kmemo.hits
//	    items_s on batch_mix.
//	kmemo.misses, kmemo.evictions, codesign.evaluations_per_req
//	    items_s, p50_ms and p99_ms on codesign_cold.
//	jobs.done, journal.appends, store.puts, store.evictions
//	    items_s and p50_ms on table1_jobs; store.puts also on
//	    batch_mix, where every sub-batch envelope is persisted.
//	gateway.shed, gateway.retries (retry_budget.spent), admit.shed,
//	jobs.failed
//	    success_ratio everywhere; all are 0 at two clients.
//	go.allocs_per_item, go.alloc_kb_per_item, go.gc_cycles,
//	process.cpu_ms_per_item
//	    items_s, p99_ms and live_heap_mb everywhere. CPU per item tells
//	    less work apart from more parallelism. These cover the whole
//	    process, the clients' own work included.
//
// Spans come from the measured phase of a traced run, which alternates
// one untraced 500 ms window with two traced ones. Wrappers around the
// benchmark's client calls (client, and for jobs client.submit,
// client.wait, client.result), the gateway's Handler (gateway), the
// gateway's outbound Options.Client (gateway.upstream, until the
// gateway closes the body) and each replica's Handler (service.handler)
// record name, start, end, client, client request index and replica.
// A client has at most one request in flight, so parents are linked by
// time containment within a client (and, for a handler, a replica).
// Spans stay in memory, outside the Go heap like the per-request
// records, and are written to
// .bench_build/run/spans-<workload>-<seed>.json when the run ends.
//
//	gateway.self_ms_p50       gateway span minus the union of its
//	                          upstream spans (sub-batch calls overlap):
//	                          p50_ms on batch_mix and table1_jobs
//	gateway.transport_ms_p50  upstream span minus its handler span:
//	                          p50_ms on batch_mix and table1_jobs
//	service.handler_ms_p50, service.handler_ms_p99
//	                          p50_ms and p99_ms on every workload
//	jobs.submit_ms_p50, jobs.wait_ms_p50, jobs.result_ms_p50
//	                          p50_ms on table1_jobs (0 elsewhere: no
//	                          job spans)
//	trace.overhead_pct        items/s of the untraced windows over the
//	                          traced ones, minus one, in percent
//
// End-to-end metrics come only from untraced runs.
//
// # What the benchmark cannot see
//
// Admission wait and the decode/compute/encode split inside
// service.handler are invisible from outside; they wait for an
// in-program stage recorder. The two in-process replicas share one
// process-wide kmemo, so the fleet models affinity's result-cache
// locality but not its kernel-cache locality: a replica serving a plant
// it does not own still hits the other replica's kernel results.
//
// # Environment
//
// The "# env" line stamps nproc, GOMAXPROCS, GOGC, the CPU model, the Go
// version, the seed and the filesystem type of the store directory.
// Figures from different stamps must not be compared: host CPU speed
// moves every workload.
//
// Two settings differ from a deployed fleet, both because the fleet is
// in one process inside the benchmark's checkout. The collector runs at
// GOGC=300: three processes would each get the runtime's 4 MB minimum
// heap goal, and tripling the percent triples that minimum for the
// shared heap (at the default, GC took about a quarter of table1_jobs'
// throughput). Store and journal fsyncs return at once, as on tmpfs
// (see tmpfsSync): the store directory sits on whatever disk holds the
// checkout, and a disk's fsync latency is host noise.
package main
