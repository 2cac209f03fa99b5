// Package gateway is the fleet front door: an HTTP proxy that
// consistent-hashes analyze, codesign, and job submissions onto a set
// of ctrlschedd replicas by plant fingerprint, so each replica's
// process-wide kernel memo stays hot on its own shard of the plant
// keyspace. Batch requests are split item by item along the same hash
// into one sub-batch per owning replica. When every owner answers 200,
// the answers merge back in item order into a body byte-identical to
// what a single replica would have returned; on any other outcome the
// whole batch goes to one replica, whose answer the client gets.
//
// The replica set is health-checked through each replica's GET /readyz
// (draining or store-degraded replicas leave rotation before their
// listener closes), and the gateway sheds load with the same bounded
// admission queue, 429 + Retry-After, and per-client fairness cap the
// replicas use — saturation surfaces at whichever layer hits its bound
// first instead of queueing without limit.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ctrlsched/internal/admit"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/service"
)

// Options configures a Gateway.
type Options struct {
	// Replicas lists the ctrlschedd base URLs (e.g.
	// http://127.0.0.1:8080). At least one is required.
	Replicas []string
	// NoAffinity disables fingerprint routing: every request is spread
	// round-robin. The zero value — affinity on — is the point of the
	// gateway; the switch exists to measure exactly what affinity buys
	// (see cmd/loadgen).
	NoAffinity bool
	// HealthEvery is the /readyz polling period (0 means 2s).
	HealthEvery time.Duration
	// MaxConcurrent / MaxQueue / PerClient tune the gateway's own
	// admission bound (see admit.Options): MaxConcurrent 0 means 64,
	// MaxQueue 0 means 256 (negative: no queueing), PerClient 0
	// disables the fairness cap.
	MaxConcurrent int
	MaxQueue      int
	PerClient     int
	// DrainGrace is how long in-flight requests get after Shutdown
	// begins before their contexts cancel (0 means 2s).
	DrainGrace time.Duration
	// BreakerThreshold is how many consecutive failures (failed /readyz
	// probes or transport errors) open a replica's circuit (0 means 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit suppresses probes
	// before one half-open probe may close it again (0 means 5s).
	BreakerCooldown time.Duration
	// RetryTokens sizes the shared retry budget: first attempts are
	// free, each in-request retry onto another replica spends one token
	// (0 means 32; negative disables retries entirely).
	RetryTokens float64
	// RetryRefill is the budget's refill rate in tokens/second (0 means
	// 1; negative disables refill — deterministic chaos runs use that).
	RetryRefill float64
	// DeadlineAnalyze / DeadlineCodesign / DeadlineJobs bound one
	// proxied request per route class: analyze and batch; codesign and
	// experiments; the jobs surface. 0 means no bound. Streaming
	// (?stream=1) requests are exempt — they are open-ended by design.
	DeadlineAnalyze  time.Duration
	DeadlineCodesign time.Duration
	DeadlineJobs     time.Duration
	// Client overrides the proxy HTTP client (tests).
	Client *http.Client
	// now overrides the breaker/budget clock (tests).
	now func() time.Time
}

// replica is one backend, its health flag, and its circuit breaker. A
// replica is in rotation only while up; up can only return to true
// through a successful probe, and the breaker decides when the replica
// deserves one.
type replica struct {
	url string
	up  atomic.Bool
	brk *breaker
}

// Gateway proxies one fleet. Safe for concurrent use.
type Gateway struct {
	opt    Options
	reps   []*replica
	ring   atomic.Pointer[ring]
	pool   *admit.Controller
	rr     atomic.Uint64
	client *http.Client
	budget *retryBudget

	draining atomic.Bool
	proxied  atomic.Int64
}

// New validates the replica set and builds a gateway. All replicas
// start optimistically ready; the first CheckReplicas corrects the set.
func New(opt Options) (*Gateway, error) {
	if len(opt.Replicas) == 0 {
		return nil, errors.New("gateway: at least one replica URL is required")
	}
	if opt.HealthEvery <= 0 {
		opt.HealthEvery = 2 * time.Second
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 64
	}
	switch {
	case opt.MaxQueue == 0:
		opt.MaxQueue = 256
	case opt.MaxQueue < 0:
		opt.MaxQueue = 0
	}
	if opt.DrainGrace <= 0 {
		opt.DrainGrace = 2 * time.Second
	}
	switch {
	case opt.RetryTokens == 0:
		opt.RetryTokens = 32
	case opt.RetryTokens < 0:
		opt.RetryTokens = 0
	}
	if opt.RetryRefill == 0 {
		opt.RetryRefill = 1
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	g := &Gateway{
		opt:    opt,
		pool:   admit.New(admit.Options{Slots: opt.MaxConcurrent, MaxQueue: opt.MaxQueue, PerClient: opt.PerClient}),
		client: opt.Client,
		budget: newRetryBudget(opt.RetryTokens, opt.RetryRefill, opt.now),
	}
	if g.client == nil {
		g.client = &http.Client{} // streams forbid a whole-request timeout
	}
	seen := make(map[string]bool)
	for _, u := range opt.Replicas {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("gateway: duplicate replica %s", u)
		}
		seen[u] = true
		rep := &replica{url: u, brk: newBreaker(breakerOptions{
			Threshold: opt.BreakerThreshold,
			Cooldown:  opt.BreakerCooldown,
			Now:       opt.now,
		})}
		rep.up.Store(true)
		g.reps = append(g.reps, rep)
	}
	if len(g.reps) == 0 {
		return nil, errors.New("gateway: at least one replica URL is required")
	}
	g.rebuild()
	return g, nil
}

// rebuild swaps in a ring over the currently-ready replicas.
func (g *Gateway) rebuild() {
	var ready []*replica
	for _, rep := range g.reps {
		if rep.up.Load() {
			ready = append(ready, rep)
		}
	}
	g.ring.Store(buildRing(ready))
}

// markDown takes a replica out of rotation until the next successful
// probe (the passive half of health checking: a transport error is
// fresher evidence than the last poll) and feeds its breaker, so a
// replica that keeps failing in-request transitions to open and stops
// being probed at all.
func (g *Gateway) markDown(rep *replica) {
	rep.brk.Failure()
	if rep.up.CompareAndSwap(true, false) {
		g.rebuild()
	}
}

// CheckReplicas probes every replica's /readyz once and swaps the ring
// if the ready set changed. A replica is ready only on a 200: draining
// and store-degraded replicas answer 503 and leave rotation. Replicas
// whose circuit is open are not probed — they stay down for free until
// the breaker's cooldown grants one half-open probe, and only that
// probe's success returns them to rotation.
func (g *Gateway) CheckReplicas(ctx context.Context) {
	changed := false
	for _, rep := range g.reps {
		if !rep.brk.ProbeDue() {
			if rep.up.Swap(false) {
				changed = true
			}
			continue
		}
		probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		up := false
		req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, rep.url+"/readyz", nil)
		if err == nil {
			if resp, err := g.client.Do(req); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
				resp.Body.Close()
				up = resp.StatusCode == http.StatusOK
			}
		}
		cancel()
		if up {
			rep.brk.Success()
		} else {
			rep.brk.Failure()
		}
		if rep.up.Swap(up) != up {
			changed = true
		}
	}
	if changed {
		g.rebuild()
	}
}

// HealthLoop polls CheckReplicas until ctx ends.
func (g *Gateway) HealthLoop(ctx context.Context) {
	g.CheckReplicas(ctx)
	t := time.NewTicker(g.opt.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.CheckReplicas(ctx)
		case <-ctx.Done():
			return
		}
	}
}

// ready returns the current ready set.
func (g *Gateway) ready() []*replica { return g.ring.Load().reps }

// pickAffinity returns the ring owner of key, nil when no replica is
// ready.
func (g *Gateway) pickAffinity(key [32]byte) *replica { return g.ring.Load().lookup(key) }

// pickRR returns the next replica round-robin, nil when none is ready.
func (g *Gateway) pickRR() *replica {
	ready := g.ready()
	if len(ready) == 0 {
		return nil
	}
	return ready[g.rr.Add(1)%uint64(len(ready))]
}

// pick resolves one request's replica: the ring owner of its route key
// when affinity applies, round-robin otherwise.
func (g *Gateway) pick(kind string, body []byte) *replica {
	if g.opt.NoAffinity {
		return g.pickRR()
	}
	if key, ok := service.RouteKey(kind, body); ok {
		return g.pickAffinity(key)
	}
	return g.pickRR()
}

// errorEnvelope mirrors the replica error contract exactly, so clients
// parse one shape whether an error came from a replica or the gateway
// itself.
type errorEnvelope struct {
	Error jobs.ErrorInfo `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: jobs.ErrorInfo{Code: code, Message: msg}})
}

func writeNoReplica(w http.ResponseWriter) {
	writeErr(w, http.StatusServiceUnavailable, "unavailable", "no ready replica", 0)
}

// Handler mounts the gateway surface: the full /v1 API proxied onto the
// fleet, plus the gateway's own /healthz and /readyz.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", g.handleHealth)
	mux.HandleFunc("/readyz", g.handleReady)
	mux.HandleFunc("/v1/analyze", g.handleRouted("analyze", service.MaxBodyBytes))
	mux.HandleFunc("/v1/analyze/batch", g.handleBatch)
	mux.HandleFunc("/v1/codesign", g.handleRouted("codesign", service.MaxBodyBytes))
	mux.HandleFunc("/v1/experiments/", g.handleExperiment)
	mux.HandleFunc("/v1/jobs", g.handleSubmit)
	mux.HandleFunc("/v1/jobs/", g.handleJob)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, "not_found", "unknown route "+r.URL.Path, 0)
	})
	return g.withAdmission(mux)
}

// routeDeadline maps one request to its route class's deadline: analyze
// (single + batch), codesign (plus experiment campaigns, which share
// its cost profile), and the jobs surface (submissions and lookups are
// registry operations that must answer fast). Streaming requests are
// exempt — they are open-ended by design and terminate through drain or
// client disconnect.
func (g *Gateway) routeDeadline(r *http.Request) time.Duration {
	if service.WantsStream(r) {
		return 0
	}
	path := r.URL.Path
	switch {
	case path == "/v1/analyze" || path == "/v1/analyze/batch":
		return g.opt.DeadlineAnalyze
	case path == "/v1/codesign" || strings.HasPrefix(path, "/v1/experiments/"):
		return g.opt.DeadlineCodesign
	case strings.HasPrefix(path, "/v1/jobs"):
		return g.opt.DeadlineJobs
	}
	return 0
}

// withAdmission gates every proxied request through the gateway's own
// bounded pool and arms its route-class deadline; probes stay un-gated
// (a saturated gateway must still answer its own health checks).
func (g *Gateway) withAdmission(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		release, err := g.pool.Acquire(r.Context(), service.ClientID(r))
		if err != nil {
			var sat *admit.SaturatedError
			if errors.As(err, &sat) {
				code := "saturated"
				if sat.PerClient {
					code = "client_saturated"
				}
				writeErr(w, http.StatusTooManyRequests, code, "gateway: "+sat.Error(), sat.RetryAfter)
				return
			}
			writeErr(w, http.StatusServiceUnavailable, "unavailable", "canceled while queued: "+err.Error(), 0)
			return
		}
		defer release()
		g.proxied.Add(1)
		ctx := service.WithClient(r.Context(), service.ClientID(r))
		if d := g.routeDeadline(r); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// readCapped reads at most limit+1 body bytes, into one buffer when the
// request announces a length service.ReadSized trusts: one byte past
// the cap is enough for the replica to answer its canonical 413 when
// the body is forwarded.
func readCapped(r *http.Request, limit int64) ([]byte, error) {
	return service.ReadSized(io.LimitReader(r.Body, limit+1), min(r.ContentLength, limit+1))
}

// relayHeaders is the response-header subset that travels back through
// the proxy.
var relayHeaders = []string{"Content-Type", "X-Cache", "Retry-After", "Allow", "X-Accel-Buffering"}

// relay copies one replica response to the client, flushing per chunk
// so ?stream=1 lines arrive as they are produced.
func relay(w http.ResponseWriter, resp *http.Response) {
	for _, h := range relayHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			// The replica's body died mid-relay. Ending the response
			// normally would hand the client a cleanly-terminated prefix
			// indistinguishable from a complete answer — abort the
			// connection instead so the client sees a transport error.
			resp.Body.Close()
			panic(http.ErrAbortHandler)
		}
	}
}

// send issues one proxied request. The response is the caller's to
// close. A nil response with nil error means the replica was
// unreachable (it has been marked down and nothing was written).
func (g *Gateway) send(ctx context.Context, rep *replica, method, uri string, header http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.url+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// The replica's per-client fairness must see the real client, not
	// the gateway's address.
	if c := header.Get("X-Client"); c != "" {
		req.Header.Set("X-Client", c)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The client gave up (or a route deadline fired): no verdict
			// on the replica, so neither markDown nor the breaker moves.
			return nil, ctx.Err()
		}
		g.markDown(rep)
		return nil, nil
	}
	rep.brk.Success()
	return resp, nil
}

// clientHeader builds the forwarded header set for one inbound request,
// pinning the derived client identity so fairness caps compose across
// layers.
func clientHeader(r *http.Request) http.Header {
	h := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	h.Set("X-Client", service.ClientID(r))
	return h
}

// writeCtxErr maps a proxied request's context error onto the wire: a
// route deadline firing is a 504 the client should not blindly retry
// (the work may still be running — resubmit as a job or raise the
// deadline), anything else is the familiar 503.
func writeCtxErr(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		writeErr(w, http.StatusGatewayTimeout, "deadline", "route deadline exceeded: "+err.Error(), 0)
		return
	}
	writeErr(w, http.StatusServiceUnavailable, "unavailable", "canceled: "+err.Error(), 0)
}

// proxy forwards one request, retrying on the next ready replica while
// the target is unreachable (the ring was rebuilt by markDown, so a
// re-pick lands elsewhere). The first attempt is free; every retry
// spends one token from the shared budget, so an outage degrades into
// fast 503s instead of a retry storm. Nothing is written to the client
// until a replica answers.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, pick func() *replica, body []byte) {
	header := clientHeader(r)
	for attempt := 0; attempt <= len(g.reps); attempt++ {
		if attempt > 0 && !g.budget.allow() {
			writeErr(w, http.StatusServiceUnavailable, "retry_budget", "gateway: retry budget exhausted", 1)
			return
		}
		rep := pick()
		if rep == nil {
			writeNoReplica(w)
			return
		}
		resp, err := g.send(r.Context(), rep, r.Method, r.URL.RequestURI(), header, body)
		if err != nil {
			writeCtxErr(w, err)
			return
		}
		if resp == nil {
			continue // unreachable: marked down, re-pick
		}
		relay(w, resp)
		resp.Body.Close()
		return
	}
	writeNoReplica(w)
}

// handleRouted serves the single-body affinity endpoints (/v1/analyze,
// /v1/codesign): hash the plant fingerprints out of the body, forward
// to the shard owner. Anything the gateway cannot interpret —
// malformed bodies, wrong methods, oversized payloads — is still
// forwarded, so the error response is byte-identical to a direct
// replica's.
func (g *Gateway) handleRouted(kind string, limit int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readCapped(r, limit)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
			return
		}
		g.proxy(w, r, func() *replica { return g.pick(kind, body) }, body)
	}
}

// handleExperiment spreads experiment campaigns round-robin: they carry
// no plant affinity (Monte-Carlo task sets), so load balance wins.
func (g *Gateway) handleExperiment(w http.ResponseWriter, r *http.Request) {
	body, err := readCapped(r, service.MaxBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
		return
	}
	g.proxy(w, r, g.pickRR, body)
}

// handleSubmit routes POST /v1/jobs by the submitted kind and inner
// request — a job lands on the same replica its synchronous twin would,
// so the shard's kernel memo and result caches serve both surfaces.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readCapped(r, service.MaxBatchBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
		return
	}
	var sub struct {
		Kind    string          `json:"kind"`
		Request json.RawMessage `json:"request"`
	}
	_ = json.Unmarshal(body, &sub) // tolerant: the replica owns rejection
	g.proxy(w, r, func() *replica { return g.pick(sub.Kind, sub.Request) }, body)
}

// handleJob resolves /v1/jobs/{id} requests by broadcast: job IDs are
// random handles minted by whichever replica ran the submission, so the
// gateway asks every replica in turn and relays the first answer that
// is not a 404. A miss is only provable when every replica answered —
// if any replica was down or unreachable during the sweep, the job may
// live exactly there, so the gateway answers 503 + Retry-After instead
// of fabricating a 404 the client would trust. Only when all replicas
// disowned the ID is the buffered 404 relayed (replicas produce
// identical not-found envelopes, so the response stays byte-identical
// to a direct miss).
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	body, err := readCapped(r, service.MaxBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
		return
	}
	header := clientHeader(r)
	var notFoundHdr http.Header
	var notFoundBody []byte
	incomplete := 0
	for _, rep := range g.reps {
		if !rep.up.Load() {
			// Down replicas are not asked (their breaker may be open and
			// a send would just burn its cooldown), but their silence
			// still poisons the 404.
			incomplete++
			continue
		}
		resp, err := g.send(r.Context(), rep, r.Method, r.URL.RequestURI(), header, body)
		if err != nil {
			writeCtxErr(w, err)
			return
		}
		if resp == nil {
			incomplete++
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
			notFoundHdr = resp.Header
			notFoundBody = b
			resp.Body.Close()
			continue
		}
		relay(w, resp)
		resp.Body.Close()
		return
	}
	if incomplete > 0 {
		retryAfter := int(g.opt.HealthEvery / time.Second)
		if retryAfter < 1 {
			retryAfter = 1
		}
		writeErr(w, http.StatusServiceUnavailable, "unavailable",
			fmt.Sprintf("job lookup incomplete: %d of %d replicas unreachable; the job may live there", incomplete, len(g.reps)),
			retryAfter)
		return
	}
	if notFoundBody == nil {
		writeNoReplica(w)
		return
	}
	for _, h := range relayHeaders {
		if v := notFoundHdr.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(http.StatusNotFound)
	_, _ = w.Write(notFoundBody)
}

// replicaStatus is one backend's row in the gateway health document.
type replicaStatus struct {
	URL      string `json:"url"`
	Ready    bool   `json:"ready"`
	Breaker  string `json:"breaker"`
	Failures int    `json:"consecutive_failures"`
	Trips    int64  `json:"breaker_trips"`
}

// handleHealth is the gateway's own liveness document: per-replica
// readiness and breaker state, admission and retry-budget stats, and
// the routing mode.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET", 0)
		return
	}
	reps := make([]replicaStatus, len(g.reps))
	for i, rep := range g.reps {
		state, fails, trips := rep.brk.State()
		reps[i] = replicaStatus{URL: rep.url, Ready: rep.up.Load(), Breaker: state, Failures: fails, Trips: trips}
	}
	status := "ok"
	if len(g.ready()) == 0 {
		status = "degraded"
	}
	doc := map[string]any{
		"status":       status,
		"draining":     g.draining.Load(),
		"affinity":     !g.opt.NoAffinity,
		"replicas":     reps,
		"admission":    g.pool.Stats(),
		"retry_budget": g.budget.stats(),
		"proxied":      g.proxied.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

// handleReady is the gateway's readiness probe: not-ready while
// draining or while no replica is ready to take work.
func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed", "use GET", 0)
		return
	}
	switch {
	case g.draining.Load():
		writeErr(w, http.StatusServiceUnavailable, "draining", "draining: not accepting new work", 0)
	case len(g.ready()) == 0:
		writeErr(w, http.StatusServiceUnavailable, "unavailable", "no ready replica", 0)
	default:
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ready"})
	}
}

// BeginDrain flips the gateway's readiness to not-ready. Idempotent.
func (g *Gateway) BeginDrain() { g.draining.Store(true) }

// NewServer wires the gateway onto an *http.Server with the same drain
// contract as the replicas: Shutdown flips readiness immediately and
// cancels in-flight proxied contexts DrainGrace later, so held streams
// unwind instead of pinning Shutdown to its deadline.
func (g *Gateway) NewServer(addr string) *http.Server {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:              addr,
		Handler:           g.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	grace := g.opt.DrainGrace
	srv.RegisterOnShutdown(func() {
		g.BeginDrain()
		time.AfterFunc(grace, baseCancel)
	})
	return srv
}
