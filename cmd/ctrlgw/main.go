// Command ctrlgw is the ctrlsched fleet gateway: an HTTP proxy that
// spreads analyze, codesign, and job traffic across a set of ctrlschedd
// replicas while keeping each replica's kernel cache hot on its own
// shard of the plant keyspace.
//
//	ctrlgw -replicas http://h1:8080,http://h2:8080 [-addr :8079]
//	       [-affinity=true] [-health-every 2s]
//	       [-concurrency 64] [-max-queue 256] [-per-client 32]
//	       [-drain-grace 2s]
//	       [-breaker-threshold 3] [-breaker-cooldown 5s]
//	       [-retry-tokens 32] [-retry-refill 1]
//	       [-deadline-analyze 1m] [-deadline-codesign 10m]
//	       [-deadline-jobs 15s]
//
// Requests that reference plants route by a consistent hash of the
// plant fingerprints they touch, so repeated work on the same plant
// always lands on the same replica. Batch requests are split item by
// item across their owning replicas, and when every owner answers 200
// the sub-results are merged back in item order — the merged body is
// byte-identical to what a single replica would have returned. On any
// other outcome one replica answers the whole batch. Everything else
// (experiments, plantless task sets with -affinity=false) round-robins.
//
// The gateway health-checks replicas via GET /readyz, ejects replicas
// that fail a proxy attempt, and sheds load with 429 + Retry-After from
// its own bounded admission queue before replica queues overflow. A
// per-replica circuit breaker makes ejection sticky (an open circuit is
// not even probed until its cooldown grants one half-open probe), a
// shared token-bucket retry budget bounds in-request retries during an
// outage, and per-route-class deadlines (-deadline-analyze /
// -deadline-codesign / -deadline-jobs; streams exempt) turn a stalled
// replica into a fast 504 instead of a held connection.
// GET /healthz reports per-replica readiness, breaker state, admission
// and retry-budget counters; GET /readyz is the gateway's own readiness
// (503 while draining or with zero ready replicas).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ctrlsched/internal/gateway"
)

func main() {
	fs := flag.NewFlagSet("ctrlgw", flag.ExitOnError)
	addr := fs.String("addr", ":8079", "listen address")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs (required)")
	affinity := fs.Bool("affinity", true, "route plant-touching requests by fingerprint consistent hash (false = round-robin everything)")
	healthEvery := fs.Duration("health-every", 2*time.Second, "interval between /readyz polls of the replica set")
	concurrency := fs.Int("concurrency", 64, "proxied requests in flight at once; further requests queue")
	maxQueue := fs.Int("max-queue", 256, "requests that may wait for a proxy slot; beyond it requests are shed with 429 + Retry-After (negative = no queue)")
	perClient := fs.Int("per-client", 32, "per-client cap on running+queued requests (0 = no cap)")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "how long shutdown lets in-flight proxied requests finish before canceling them")
	brkThreshold := fs.Int("breaker-threshold", 3, "consecutive probe/transport failures that open a replica's circuit")
	brkCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "how long an open circuit suppresses probes before one half-open probe may close it")
	retryTokens := fs.Float64("retry-tokens", 32, "retry budget bucket size; each in-request retry onto another replica spends one token (negative = no retries)")
	retryRefill := fs.Float64("retry-refill", 1, "retry budget refill rate in tokens/second (negative = no refill)")
	dlAnalyze := fs.Duration("deadline-analyze", time.Minute, "deadline for /v1/analyze and /v1/analyze/batch requests (0 = none; streams exempt)")
	dlCodesign := fs.Duration("deadline-codesign", 10*time.Minute, "deadline for /v1/codesign and /v1/experiments requests (0 = none; streams exempt)")
	dlJobs := fs.Duration("deadline-jobs", 15*time.Second, "deadline for /v1/jobs submissions and lookups (0 = none; streams exempt)")
	_ = fs.Parse(os.Args[1:])

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := run(*addr, gateway.Options{
		Replicas:         splitReplicas(*replicas),
		NoAffinity:       !*affinity,
		HealthEvery:      *healthEvery,
		MaxConcurrent:    *concurrency,
		MaxQueue:         *maxQueue,
		PerClient:        *perClient,
		DrainGrace:       *drainGrace,
		BreakerThreshold: *brkThreshold,
		BreakerCooldown:  *brkCooldown,
		RetryTokens:      *retryTokens,
		RetryRefill:      *retryRefill,
		DeadlineAnalyze:  *dlAnalyze,
		DeadlineCodesign: *dlCodesign,
		DeadlineJobs:     *dlJobs,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctrlgw:", err)
		os.Exit(1)
	}
}

func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		if r = strings.TrimSpace(r); r != "" {
			out = append(out, r)
		}
	}
	return out
}

func run(addr string, opt gateway.Options) error {
	if len(opt.Replicas) == 0 {
		return errors.New("at least one -replicas URL is required")
	}
	g, err := gateway.New(opt)
	if err != nil {
		return err
	}
	srv := g.NewServer(addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go g.HealthLoop(ctx)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	mode := "affinity"
	if opt.NoAffinity {
		mode = "round-robin"
	}
	log.Printf("ctrlgw listening on %s (%d replicas, %s routing, concurrency=%d, max_queue=%d)",
		addr, len(opt.Replicas), mode, opt.MaxConcurrent, opt.MaxQueue)

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		log.Printf("shutting down (drain grace %s)", opt.DrainGrace)
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}
