// Command ctrlschedd is the ctrlsched analysis daemon: a long-running
// HTTP service over the experiment engine and the single-task-set
// analyzers (rta, jitter, lqg, assign).
//
//	ctrlschedd [-addr :8080] [-workers N] [-concurrency C] [-cache-entries E] [-max-items M]
//	           [-kernel-cache-entries E] [-kernel-cache-bytes B] [-kernel-cache-off]
//	           [-jobs-dir DIR] [-store-entries E] [-store-bytes B] [-store-max-age D]
//	           [-max-jobs N] [-pprof]
//
// API:
//
//	GET    /healthz                — liveness, counters, available kinds
//	POST   /v1/experiments/{kind}  — {kind} ∈ table1, fig2, fig4, fig5,
//	                                 anomalies, compare; body = JSON config
//	                                 (empty = paper defaults); ?stream=1
//	                                 switches to chunked progress + result
//	POST   /v1/analyze             — one task set (priority assignment +
//	                                 exact RTA + stability) or one plant
//	                                 (LQG cost + jitter margin)
//	POST   /v1/analyze/batch       — {"items":[...]} of analyze queries,
//	                                 fanned out over the worker pool with
//	                                 per-item caching; ?stream=1 emits one
//	                                 chunked line per item, in item order
//	POST   /v1/codesign            — co-design synthesis: choose sampling
//	                                 periods + priorities for candidate
//	                                 control loops minimizing total
//	                                 delay-aware LQG cost under
//	                                 schedulability and jitter-margin
//	                                 stability; ?stream=1 emits one
//	                                 progress line per candidate evaluated
//	POST   /v1/jobs                — submit any of the above as an async
//	                                 job: {"kind":"...","request":{...}};
//	                                 202 + status document with the job id
//	GET    /v1/jobs/{id}           — status snapshot; ?stream=1 follows
//	                                 the job's typed event lines live
//	GET    /v1/jobs/{id}/result    — a terminal job's outcome (the exact
//	                                 bytes the synchronous endpoint
//	                                 returns for the same request)
//	DELETE /v1/jobs/{id}           — cancel (aborts the running campaign)
//
// Responses are canonical JSON: identical requests return byte-identical
// bodies, whether computed fresh, served from the LRU cache (see the
// X-Cache header, or the {"type":"cache",...} line on streamed
// responses), served from the durable result store after a daemon
// restart (-jobs-dir), or computed with a different worker count. All
// streamed responses — sync ?stream=1 and the job event stream — share
// one line schema: {"type":"progress"|"cache"|"item"|"result"|"error",...}.
// Errors on every endpoint share one envelope:
// {"error":{"code":"...","message":"..."}}. Streaming requests on
// connections without chunked-transfer support degrade to the plain
// buffered response. With -jobs-dir set, results persist content-addressed
// by canonical request, so a restarted daemon serves prior results
// without recompute; the kernel cache is rebuilt on demand after a
// restart. On SIGINT/SIGTERM the daemon stops taking work and drains
// running jobs before it exits.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"ctrlsched/internal/service"
)

func main() {
	fs := flag.NewFlagSet("ctrlschedd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cfg := service.RegisterFlags(fs)
	_ = fs.Parse(os.Args[1:])

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := service.Serve(*addr, *cfg, log.Printf); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlschedd:", err)
		os.Exit(1)
	}
}
