// Package service is the analysis layer between the experiment engine
// and its consumers (the ctrlschedd HTTP daemon, the `ctrlsched serve`
// subcommand, and any future RPC surface). Every request — an
// experiment kind plus configuration, a task-set or plant analysis, a
// batch of those, or a co-design search — goes through one pipeline
// (see pipeline.go): its kind's prepare step canonicalizes it and
// derives a deterministic cache key, and one serve path answers it from
// the cache tiers the kind table names for it, or computes it with
// per-request progress reporting.
//
// Because every experiment is deterministic for a fixed (seed, config)
// and its JSON encoding is canonical (see internal/experiments), the
// service can promise byte-identical responses for identical requests,
// across repetitions, worker counts, and cache hits alike. That promise
// is what makes the layer safe to shard or replicate later: any node
// computes the same bytes.
package service

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ctrlsched/internal/admit"
	"ctrlsched/internal/campaign"
	"ctrlsched/internal/codesign"
	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/kmemo"
	"ctrlsched/internal/taskgen"
)

// schemaTag versions every cache key, so a schema bump can never serve
// stale bytes.
const schemaTag = experiments.SchemaVersion

// Config tunes a Service. The zero value is production-safe defaults.
type Config struct {
	// Workers is the campaign worker-pool width every experiment run is
	// executed with; 0 means all CPUs. Results never depend on it.
	Workers int
	// MaxConcurrent bounds how many experiment runs execute at once;
	// further requests queue (bounded FIFO — see MaxQueue). 0 means 2.
	MaxConcurrent int
	// MaxQueue bounds how many pool-scheduled requests may wait for a
	// slot. A request beyond the bound is shed immediately with a 429
	// and a Retry-After hint instead of queueing without limit. 0 means
	// 64; negative means no queueing at all (shed when every slot is
	// busy).
	MaxQueue int
	// PerClient caps one client's running-plus-queued pool requests
	// (identified by the X-Client header, falling back to the remote
	// address), so a single chatty client cannot fill the queue and
	// starve the rest. 0 disables the cap.
	PerClient int
	// DrainGrace is how long Shutdown lets in-flight requests finish
	// before canceling their contexts (which aborts campaigns and
	// terminates ?stream=1 responses with a typed error event). 0 means
	// 2s; negative cancels immediately.
	DrainGrace time.Duration
	// CacheEntries is the LRU result-cache capacity; 0 means 256.
	CacheEntries int
	// CacheBytes bounds the total bytes the result cache retains (large
	// sweeps produce multi-MB responses); responses over a quarter of it
	// are served uncached. 0 means 256 MiB.
	CacheBytes int64
	// MaxItems rejects requests whose campaign would exceed this many
	// items (benchmarks × sizes, trials × sizes, grid points …) with a
	// 400 rather than letting one request monopolize the pool. 0 means
	// 2 000 000.
	MaxItems int
	// KernelCacheEntries and KernelCacheBytes size the process-wide
	// kernel-result cache (internal/kmemo) that LQG syntheses,
	// delay-aware costs, and jitter-margin curves are shared through.
	// 0 means keep the process's current configuration (the kmemo
	// defaults unless something reconfigured them), so constructing a
	// Service never drops a warm cache.
	KernelCacheEntries int
	KernelCacheBytes   int64
	// KernelCacheOff disables the kernel cache entirely, restoring
	// per-request kernel computation exactly as before kmemo existed.
	KernelCacheOff bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// service handler (the ctrlschedd -pprof flag).
	EnablePprof bool
	// JobsDir, when set, roots the durable content-addressed result
	// store and the job journal. The store keeps codesign and experiment
	// results, so they survive daemon restarts and are served
	// byte-identical without recompute, whether asked for by a sync
	// request or a job; analyze and batch results are cheap and never
	// stored. The kernel cache is not persisted; a restarted process
	// refills it on demand, since every kernel is a pure function of its
	// inputs. Empty disables persistence (jobs still run, results die
	// with the process).
	JobsDir string
	// StoreEntries/StoreBytes/StoreMaxAge bound the durable store's
	// retention (see jobs.StoreOptions). Zero means the jobs defaults;
	// StoreMaxAge zero means no age bound.
	StoreEntries int
	StoreBytes   int64
	StoreMaxAge  time.Duration
	// MaxJobs bounds the async job registry; beyond it the oldest
	// finished jobs are forgotten (stored results stay in the store).
	// 0 means jobs.DefaultMaxJobs.
	MaxJobs int
	// RecoverPolicy decides what happens to journaled-but-unfinished
	// jobs found at startup (a hard crash left them behind):
	// "resubmit" (the default) re-enqueues each under its original ID —
	// idempotent, since a result already in the store is served from
	// disk without recompute — while "interrupt" parks them in the typed
	// `interrupted` terminal state for the client to resubmit (a
	// resubmitted stored result is then answered from the store).
	RecoverPolicy string
	// StoreFS overrides the filesystem the durable store and job
	// journal mutate through. Not a flag: production always runs on the
	// real filesystem; chaos tests inject deterministic write/sync/
	// rename faults here via internal/faultinject.
	StoreFS jobs.FS
}

// Recovery policies for journaled-but-unfinished jobs found at startup.
const (
	RecoverResubmit  = "resubmit"
	RecoverInterrupt = "interrupt"
)

// RegisterFlags registers the shared daemon tuning flags on fs and
// returns the Config they populate. cmd/ctrlschedd and `ctrlsched
// serve` both use it, so the flag set cannot diverge between the two.
func RegisterFlags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.IntVar(&cfg.Workers, "workers", runtime.NumCPU(), "campaign worker goroutines per run (results are worker-count invariant)")
	fs.IntVar(&cfg.MaxConcurrent, "concurrency", 2, "experiment runs executing at once; further requests queue")
	fs.IntVar(&cfg.MaxQueue, "max-queue", 64, "pool requests that may wait for a slot; beyond it requests are shed with 429 + Retry-After (negative = no queue)")
	fs.IntVar(&cfg.PerClient, "per-client", 16, "per-client cap on running+queued pool requests (0 = no cap)")
	fs.DurationVar(&cfg.DrainGrace, "drain-grace", 2*time.Second, "how long shutdown lets in-flight requests finish before canceling them")
	fs.IntVar(&cfg.CacheEntries, "cache-entries", 256, "LRU result-cache capacity")
	fs.Int64Var(&cfg.CacheBytes, "cache-bytes", 256<<20, "total bytes the result cache may retain")
	fs.IntVar(&cfg.MaxItems, "max-items", 2_000_000, "reject campaigns above this many total items")
	fs.IntVar(&cfg.KernelCacheEntries, "kernel-cache-entries", kmemo.DefaultEntries, "process-wide kernel result cache capacity (entries)")
	fs.Int64Var(&cfg.KernelCacheBytes, "kernel-cache-bytes", kmemo.DefaultBytes, "total bytes the kernel result cache may retain")
	fs.BoolVar(&cfg.KernelCacheOff, "kernel-cache-off", false, "disable the process-wide kernel result cache (recompute every kernel per request)")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.JobsDir, "jobs-dir", "", "directory for the durable job-result store and job journal (empty = no persistence)")
	fs.IntVar(&cfg.StoreEntries, "store-entries", jobs.DefaultStoreEntries, "max results the durable store retains")
	fs.Int64Var(&cfg.StoreBytes, "store-bytes", jobs.DefaultStoreBytes, "total bytes the durable store may retain")
	fs.DurationVar(&cfg.StoreMaxAge, "store-max-age", 0, "drop stored results older than this (0 = no age bound)")
	fs.IntVar(&cfg.MaxJobs, "max-jobs", jobs.DefaultMaxJobs, "max async jobs tracked in the registry")
	fs.StringVar(&cfg.RecoverPolicy, "job-recovery", RecoverResubmit, "what to do with journaled jobs a crash left unfinished: resubmit (re-run, idempotent) or interrupt (surface typed interrupted status)")
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 2 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxItems <= 0 {
		c.MaxItems = 2_000_000
	}
	return c
}

// Error is a service failure with an associated HTTP status. Request
// canonicalization failures are 400s; unknown kinds 404; queue
// cancellations and campaign aborts 503; engine-internal failures 500.
type Error struct {
	Status int
	Msg    string
	// Code overrides the status-derived machine code of the JSON error
	// envelope (see ErrorCode); empty means derive from Status.
	Code string
	// allow is the Allow header value a 405 response must carry.
	allow string
	// retryAfter is the Retry-After header value (whole seconds) a 429
	// shed response must carry.
	retryAfter int
}

func (e *Error) Error() string { return e.Msg }

func badRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// methodNotAllowed builds the uniform 405 with its Allow header value.
func methodNotAllowed(allow string) *Error {
	return &Error{Status: http.StatusMethodNotAllowed, Msg: "use " + allow, allow: allow}
}

// HTTPStatus maps an error to its HTTP status (500 for non-service
// errors).
func HTTPStatus(err error) int {
	var se *Error
	if errors.As(err, &se) {
		return se.Status
	}
	return http.StatusInternalServerError
}

// ErrorCode maps an error to the machine-readable code of the JSON
// error envelope {"error":{"code","message"}}.
func ErrorCode(err error) string {
	var se *Error
	if errors.As(err, &se) {
		if se.Code != "" {
			return se.Code
		}
		return codeForStatus(se.Status)
	}
	return codeForStatus(http.StatusInternalServerError)
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "saturated"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return fmt.Sprintf("http_%d", status)
	}
}

// errorInfo converts an error to the shared envelope/stream body.
func errorInfo(err error) *jobs.ErrorInfo {
	return &jobs.ErrorInfo{Code: ErrorCode(err), Message: err.Error()}
}

// classifyError maps a runtime (post-admission) failure to its
// transport status, uniformly across every route: campaign aborts and
// context cancellations are 503 (the service shed the request — the
// caller's input was fine), engine-internal failures (codesign
// kernels' ErrInternal) are 500 — blaming the caller with a 400 both
// misleads and hides bugs — and everything else, which by construction
// is input-shaped (bad grids, impossible task sets), is 400. Errors
// already carrying a status pass through unchanged.
func classifyError(op string, err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	switch {
	case errors.Is(err, campaign.ErrAborted), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return &Error{Status: http.StatusServiceUnavailable, Msg: "canceled during " + op + ": " + err.Error()}
	case errors.Is(err, codesign.ErrInternal):
		return &Error{Status: http.StatusInternalServerError, Msg: err.Error()}
	default:
		return badRequest("%v", err)
	}
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Errors       int64 `json:"errors"`
	Active       int64 `json:"active"`
	CacheEntries int   `json:"cache_entries"`
}

// Service answers analysis requests. Safe for concurrent use.
type Service struct {
	cfg   Config
	pool  *admit.Controller
	cache *lruCache
	start time.Time

	// draining flips once shutdown begins; /readyz reports not-ready
	// from then on so load balancers stop routing here before the
	// listener closes.
	draining atomic.Bool

	// store is the durable content-addressed result store (nil without
	// JobsDir); only serve and execute read and write it. jobsEng tracks
	// async jobs and their journal. storeErr records an open failure for
	// /healthz — a daemon that cannot persist still serves (the store is
	// a cache, not the source of truth).
	store      *jobs.Store
	jobsEng    *jobs.Engine
	storeErr   string
	journalErr string

	genMu sync.Mutex
	gens  map[experiments.GenSpec]*taskgen.Generator

	flightMu sync.Mutex
	flights  map[cacheKey]*flight

	requests, hits, misses, errs, active atomic.Int64
}

// New builds a Service with the given configuration. Kernel-cache
// settings apply process-wide (the cache is shared across services):
// explicit capacities reconfigure it, zero values leave it untouched,
// and KernelCacheOff disables it.
func New(cfg Config) *Service {
	c := cfg.withDefaults()
	switch {
	case c.KernelCacheOff:
		kmemo.Disable()
	case c.KernelCacheEntries > 0 || c.KernelCacheBytes > 0:
		entries, bytes := c.KernelCacheEntries, c.KernelCacheBytes
		if entries <= 0 {
			entries = kmemo.DefaultEntries
		}
		if bytes <= 0 {
			bytes = kmemo.DefaultBytes
		}
		kmemo.Configure(entries, bytes)
	}
	s := &Service{
		cfg:     c,
		pool:    admit.New(admit.Options{Slots: c.MaxConcurrent, MaxQueue: c.MaxQueue, PerClient: c.PerClient}),
		cache:   newLRUCache(c.CacheEntries, c.CacheBytes),
		gens:    make(map[experiments.GenSpec]*taskgen.Generator),
		flights: make(map[cacheKey]*flight),
		start:   time.Now(),
	}
	var jrn *jobs.Journal
	var intents []jobs.Intent
	if c.JobsDir != "" {
		store, err := jobs.OpenStore(c.JobsDir, jobs.StoreOptions{
			MaxEntries: c.StoreEntries,
			MaxBytes:   c.StoreBytes,
			MaxAge:     c.StoreMaxAge,
			FS:         c.StoreFS,
		})
		if err != nil {
			s.storeErr = err.Error()
		} else {
			s.store = store
		}
		jrn, intents, err = jobs.OpenJournal(c.JobsDir, c.StoreFS)
		if err != nil {
			// A journal that cannot open degrades crash recovery, not
			// serving: jobs still run, their results still persist.
			s.journalErr = err.Error()
			jrn, intents = nil, nil
		}
	}
	s.jobsEng = jobs.NewEngine(c.MaxJobs, jrn)
	// Resolve what the previous process left behind before taking
	// traffic: every journaled-but-unfinished job re-runs (a stored
	// result answers it from disk) or surfaces as interrupted — never
	// vanishes.
	s.jobsEng.Recover(intents, c.RecoverPolicy != RecoverInterrupt, func(kind string, raw []byte) (jobs.Runner, error) {
		_, run, err := s.prepareJob(kind, raw)
		return run, err
	})
	return s
}

// BeginDrain marks the service as shutting down: /readyz reports
// not-ready from this point on, so rolling deploys stop routing new
// work here while in-flight requests finish. Idempotent.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Draining reports whether shutdown has begun.
func (s *Service) Draining() bool { return s.draining.Load() }

// Drain stops accepting job submissions and waits for running jobs,
// canceling them if ctx expires first. Stored kinds wrote their results
// when they computed them, so nothing else needs saving. Serve calls it
// on graceful shutdown.
func (s *Service) Drain(ctx context.Context) {
	s.BeginDrain()
	s.jobsEng.Drain(ctx)
}

// Workers returns the campaign pool width the service runs with.
func (s *Service) Workers() int { return s.cfg.Workers }

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Requests:     s.requests.Load(),
		CacheHits:    s.hits.Load(),
		CacheMisses:  s.misses.Load(),
		Errors:       s.errs.Load(),
		Active:       s.active.Load(),
		CacheEntries: s.cache.len(),
	}
}

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.start) }

// maxPooledGenerators bounds the per-GenSpec generator pool: the spec's
// float fields are client-controlled, so without a cap a client cycling
// parameters would grow daemon memory monotonically (each generator
// carries a warmed coefficient cache).
const maxPooledGenerators = 32

// generator returns the pooled generator for a normalized GenSpec, so
// repeated requests share one warmed jitter-margin coefficient cache
// instead of re-synthesizing controllers per request.
func (s *Service) generator(spec experiments.GenSpec) *taskgen.Generator {
	spec = spec.Normalized()
	s.genMu.Lock()
	defer s.genMu.Unlock()
	if g, ok := s.gens[spec]; ok {
		return g
	}
	if len(s.gens) >= maxPooledGenerators {
		// Drop an arbitrary entry; pooling is a warm-cache optimization,
		// not a correctness requirement.
		for k := range s.gens {
			delete(s.gens, k)
			break
		}
	}
	g := spec.Generator()
	s.gens[spec] = g
	return g
}

// Experiment answers one experiment request: kind names the experiment
// (experiments.KindTable1 …) and rawCfg is its JSON configuration (empty
// means all defaults). It returns the canonical JSON response bytes,
// whether they came from a cache, and an error carrying an HTTP status
// on failure. progress, when non-nil, receives per-request campaign
// progress (cache hits never call it).
func (s *Service) Experiment(ctx context.Context, kind string, rawCfg []byte, progress experiments.ProgressFunc) ([]byte, bool, error) {
	return s.call(ctx, experimentByName(kind), rawCfg, sink{progress: progress})
}

// Analyze answers one single-task-set analysis request (see
// AnalyzeRequest): priority assignment plus exact response-time and
// stability analysis, or an LQG/jitter-margin plant query. It takes no
// campaign-pool slot, which keeps its latency flat under pool pressure;
// a single analyze and a /v1/analyze/batch item with the same canonical
// request share one cache key and one flight.
func (s *Service) Analyze(ctx context.Context, raw []byte) ([]byte, bool, error) {
	return s.call(ctx, analyzeKind, raw, sink{})
}

// admitPool performs bounded pool admission for one request: FIFO
// within the queue bound, shed with a 429 beyond it (or beyond the
// client's fairness cap), 503 when the caller's context dies while
// queued.
func (s *Service) admitPool(ctx context.Context) (release func(), err error) {
	release, err = s.pool.Acquire(ctx, ClientFrom(ctx))
	if err == nil {
		return release, nil
	}
	var sat *admit.SaturatedError
	if errors.As(err, &sat) {
		code := "saturated"
		if sat.PerClient {
			code = "client_saturated"
		}
		return nil, &Error{Status: http.StatusTooManyRequests, Code: code, Msg: sat.Error(), retryAfter: sat.RetryAfter}
	}
	return nil, &Error{Status: http.StatusServiceUnavailable, Msg: "canceled while queued: " + err.Error()}
}
