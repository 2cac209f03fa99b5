package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ctrlsched/internal/jobs"
	"ctrlsched/internal/kmemo"
)

// MaxBodyBytes bounds request bodies; analysis configs are tiny. Batch
// bodies and job submissions get a larger cap: a full MaxBatchItems
// batch of wide task sets runs to several MB, and the documented item
// limit must be reachable. The gateway reads bodies with the same caps.
const (
	MaxBodyBytes      = 1 << 20
	MaxBatchBodyBytes = 8 << 20
)

// Handler mounts the service's HTTP API:
//
//	GET    /healthz                    — liveness + counters
//	POST   /v1/experiments/{kind}      — run (or serve cached) experiment
//	POST   /v1/analyze                 — single task-set / plant analysis
//	POST   /v1/analyze/batch           — N analyze queries in one request
//	POST   /v1/codesign                — period/priority synthesis
//	POST   /v1/jobs                    — submit any of the above as a job
//	GET    /v1/jobs/{id}               — job status (?stream=1 to follow)
//	GET    /v1/jobs/{id}/result        — a terminal job's outcome
//	DELETE /v1/jobs/{id}               — cancel a running job
//
// Every endpoint speaks one contract. Success responses are the
// canonical JSON result bytes; identical requests return identical
// bytes whether computed, cached, or replayed from the durable store,
// through the synchronous or the jobs surface alike. Plain responses
// carry the X-Cache header ("hit"/"miss"; a batch reports "hit" only
// when every item hit). Failures are one JSON error envelope,
// {"error":{"code","message"}}, with the status-matched machine code
// (bad_request, not_found, method_not_allowed, payload_too_large,
// unavailable, internal, …) and an Allow header on 405s.
//
// Appending ?stream=1 to an experiment, codesign, or batch request —
// or GETting a job with it — switches to chunked JSON lines in the
// shared typed event schema (see jobs.Event): {"type":"progress",...}
// lines (one per completed candidate evaluation on codesign, ~1%
// granularity elsewhere), per-item {"type":"item",...} lines on a
// batch, a {"type":"cache",...} line, then the terminal
// {"type":"result",...} or {"type":"error",...} line. Cache status
// travels in-band on streams because a coalesced joiner's headers are
// already on the wire before its status is known. When the connection
// cannot stream (the ResponseWriter is no http.Flusher), ?stream=1
// degrades to the plain buffered response instead of failing.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/v1/experiments/", s.handleExperiment)
	for _, k := range kindTable {
		if k.route != "" {
			k := k
			mux.HandleFunc(k.route, func(w http.ResponseWriter, r *http.Request) { s.handleCompute(w, r, k) })
		}
	}
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	// Unknown routes get the same envelope as every other failure, not
	// net/http's plain-text default.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "unknown route " + r.URL.Path})
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return withClientID(mux)
}

// clientCtxKey carries the request's client identity for the per-client
// fairness cap.
type clientCtxKey struct{}

// WithClient attaches a client identity to ctx; the pool's per-client
// fairness cap is keyed by it.
func WithClient(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, clientCtxKey{}, id)
}

// ClientFrom returns the client identity attached to ctx ("" when
// none — background work such as async jobs is unattributed).
func ClientFrom(ctx context.Context) string {
	id, _ := ctx.Value(clientCtxKey{}).(string)
	return id
}

// ClientID derives a request's client identity: the X-Client header
// when present (the gateway forwards it, clients and loadgen set it),
// falling back to the remote host, so untagged traffic still gets
// per-source fairness.
func ClientID(r *http.Request) string {
	if id := r.Header.Get("X-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// withClientID stamps every request's context with its client identity
// before routing.
func withClientID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(WithClient(r.Context(), ClientID(r))))
	})
}

// errorEnvelope is the uniform JSON error body of every endpoint.
type errorEnvelope struct {
	Error jobs.ErrorInfo `json:"error"`
}

// writeError emits the uniform JSON error envelope
// {"error":{"code","message"}}; 405s additionally carry their Allow
// header and 429 shed responses a parseable whole-seconds Retry-After.
func writeError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	var se *Error
	if errors.As(err, &se) {
		if se.allow != "" {
			w.Header().Set("Allow", se.allow)
		}
		if se.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
		}
	}
	w.WriteHeader(HTTPStatus(err))
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: *errorInfo(err)})
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := ReadSized(http.MaxBytesReader(w, r.Body, limit), min(r.ContentLength, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return nil, badRequest("read body: %v", err)
	}
	return body, nil
}

// maxPresize bounds the buffer ReadSized allocates before any body byte
// arrives. A client can announce the largest Content-Length a route
// accepts and then send nothing, so a length is trusted only this far;
// a longer body grows the buffer as its bytes come in.
const maxPresize = 64 << 10

// ReadSized reads r to EOF like io.ReadAll. A size that is not negative
// — a Content-Length, clamped by the caller to the most it reads —
// sizes the buffer up to maxPresize, so a body of that size is read
// into one allocation; any other body grows the buffer as io.ReadAll
// does.
func ReadSized(r io.Reader, size int64) ([]byte, error) {
	if size < 0 {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, min(size, maxPresize)+1) // the read that meets EOF needs room
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// handleHealth is the liveness probe: always 200 while the process can
// answer at all, with status "ok" — or "degraded" when the durable
// store failed to open (the daemon still serves, but results do not
// persist; /readyz is the probe that takes a degraded replica out of
// rotation). Draining is reported in-band for operators; liveness does
// not flip during drain (killing a draining process would defeat the
// drain).
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, methodNotAllowed(http.MethodGet))
		return
	}
	status := "ok"
	if s.storeErr != "" || s.journalErr != "" {
		status = "degraded"
	}
	doc := map[string]any{
		"status":         status,
		"draining":       s.Draining(),
		"uptime_seconds": s.Uptime().Seconds(),
		"kinds":          Kinds(),
		"stats":          s.Stats(),
		"pool": map[string]int{
			"workers":        s.cfg.Workers,
			"max_concurrent": s.cfg.MaxConcurrent,
		},
		"admission": s.pool.Stats(),
		// Cache observability, innermost to outermost: the process-wide
		// kernel memo, this service's encoded-result LRU, then the
		// durable result store.
		"kernel_cache": kmemo.Default().Stats(),
		"result_cache": s.cache.stats(),
		"result_store": s.store.Stats(),
		"jobs":         s.jobsEng.Stats(),
		"journal":      s.jobsEng.Journal().Stats(),
	}
	if s.storeErr != "" {
		doc["result_store_error"] = s.storeErr
	}
	if s.journalErr != "" {
		doc["journal_error"] = s.journalErr
	}
	writeJSON(w, doc)
}

// handleReady is the readiness probe, distinct from /healthz liveness:
// 503 once drain begins (rolling deploys route away before the
// listener closes) and 503 when the durable store failed to open (a
// replica that cannot persist results should not join a fleet whose
// restart story depends on the store). 200 {"status":"ready"}
// otherwise.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, methodNotAllowed(http.MethodGet))
		return
	}
	switch {
	case s.Draining():
		writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: "draining", Msg: "draining: not accepting new work"})
	case s.storeErr != "":
		writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: "degraded", Msg: "durable store unavailable: " + s.storeErr})
	case s.journalErr != "":
		writeError(w, &Error{Status: http.StatusServiceUnavailable, Code: "degraded", Msg: "job journal unavailable: " + s.journalErr})
	default:
		writeJSON(w, map[string]any{"status": "ready"})
	}
}

// handleExperiment resolves /v1/experiments/{kind} to its kind-table
// row; an unknown kind is answered (and counted) as a 404.
func (s *Service) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/experiments/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "use /v1/experiments/{kind}"})
		return
	}
	s.handleCompute(w, r, experimentByName(name))
}

// handleCompute serves every compute route: POST only, the route's body
// limit, then the buffered response — or, where the route accepts
// ?stream=1 and the connection can stream, chunked event lines.
func (s *Service) handleCompute(w http.ResponseWriter, r *http.Request, k *kind) {
	if r.Method != http.MethodPost {
		writeError(w, methodNotAllowed(http.MethodPost))
		return
	}
	body, err := readBody(w, r, k.maxBody)
	if err != nil {
		writeError(w, err)
		return
	}
	req, err := k.prepare(s, body)
	if flusher, ok := w.(http.Flusher); ok && err == nil && k.stream && WantsStream(r) {
		s.writeStream(r.Context(), w, flusher, &req)
		return
	}
	// No ?stream=1, or a connection that cannot stream: the plain
	// buffered response.
	b, hit, err := s.run(r.Context(), &req, err, sink{})
	if err != nil {
		writeError(w, err)
		return
	}
	writeResult(w, b, hit)
}

// WantsStream reports whether r asks for a chunked ?stream=1 response.
// The gateway asks the same question to route and time a request.
func WantsStream(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// writeResult writes one buffered compute answer. Its Content-Length
// lets a reader, such as the gateway merging a split batch, read the
// body into one buffer of the right size.
func writeResult(w http.ResponseWriter, b []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	_, _ = w.Write(b)
}

// writeStream serves one request as chunked typed event lines, the
// schema job streams replay (see jobs.Event):
//
//	{"type":"progress","done":128,"total":50000}
//	...
//	{"type":"cache","status":"miss"}
//	{"type":"result","result":{...}}
//
// or, on a batch, one line per item in item order and the terminator:
//
//	{"type":"item","index":0,"status":"miss","result":{...}}
//	{"type":"item","index":2,"error":{"code":"bad_request","message":"..."}}
//	{"type":"result","done":64}
//
// Cache status travels in-band: a coalesced joiner receives the
// leader's progress lines before its own cache status is known, and by
// then response headers are frozen on the wire. Errors discovered after
// streaming began arrive as a final {"type":"error",...} line (the 200
// status is already on the wire — clients must treat an error line as
// failure; batch items already sent remain valid results).
func (s *Service) writeStream(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, req *request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Accel-Buffering", "no")

	var mu sync.Mutex
	started := false
	b, hit, err := s.run(ctx, req, nil, eventSink(req, func(ev jobs.Event) {
		mu.Lock()
		defer mu.Unlock()
		started = true
		writeEvent(w, ev)
		flusher.Flush()
	}))
	mu.Lock()
	defer mu.Unlock()
	switch {
	case req.items > 0 && err == nil:
		writeEvent(w, jobs.BatchDoneEvent(req.items))
	case err == nil:
		writeEvent(w, jobs.CacheEvent(hit))
		writeEvent(w, jobs.ResultEvent(json.RawMessage(bytes.TrimRight(b, "\n"))))
	case !started:
		writeError(w, err)
		return
	default:
		writeEvent(w, jobs.ErrorEvent(*errorInfo(err)))
	}
	flusher.Flush()
}

// NewServer wires the service onto an *http.Server whose per-request
// contexts derive from a server-lifetime base context. When Shutdown
// begins, the service flips to draining (readyz goes not-ready) and,
// DrainGrace later, the base context cancels: long-running campaigns
// abort and ?stream=1 responses terminate promptly with a typed
// {"type":"error",...} event instead of pinning Shutdown until its
// deadline. Requests that finish within the grace window are
// untouched.
func (s *Service) NewServer(addr string) *http.Server {
	baseCtx, baseCancel := context.WithCancel(context.Background())
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	grace := s.cfg.DrainGrace
	srv.RegisterOnShutdown(func() {
		s.BeginDrain()
		if grace <= 0 {
			baseCancel()
			return
		}
		time.AfterFunc(grace, baseCancel)
	})
	return srv
}

// Serve runs the HTTP API on addr until SIGINT/SIGTERM, then shuts down
// gracefully: readiness flips not-ready, in-flight connections get
// DrainGrace to finish before their contexts cancel (streams terminate
// with a typed error event), and the job engine drains (new submissions
// are refused, running jobs complete or are canceled at the deadline).
// Both the ctrlschedd daemon and `ctrlsched serve` are thin wrappers
// around it.
func Serve(addr string, cfg Config, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := New(cfg)
	srv := s.NewServer(addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logf("ctrlschedd listening on %s (workers=%d, max_concurrent=%d, max_queue=%d, cache=%d entries, kinds: %s)",
		addr, s.cfg.Workers, s.cfg.MaxConcurrent, s.cfg.MaxQueue, s.cfg.CacheEntries, strings.Join(Kinds(), " "))

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		logf("shutting down (drain grace %s)", s.cfg.DrainGrace)
		// Readiness flips before the listener closes, so a rolling
		// deploy's load balancer routes away first.
		s.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		s.Drain(shutCtx)
		return err
	}
}
