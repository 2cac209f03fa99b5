package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"ctrlsched/internal/jobs"
)

// The async job surface: POST /v1/jobs accepts any canonical request
// the synchronous endpoints understand — analyze, analyze_batch,
// codesign, or any experiment kind — validates it at admission (a bad
// request fails the POST with a 400, not the job), and runs it on the
// same pool, caches, and campaign-abort plumbing. A job's runner is the
// synchronous pipeline itself, so its result bytes are byte-identical
// to the synchronous response for the same canonical request, and
// either surface can serve a result the other computed: from the
// result cache, or for the stored kinds (codesign and the experiments)
// from the durable store, including across daemon restarts.

// SubmitRequest is the body of POST /v1/jobs.
type SubmitRequest struct {
	// Kind routes the request: "analyze", "analyze_batch", "codesign",
	// or an experiment kind (table1, fig2, …).
	Kind string `json:"kind"`
	// Request is the same body the synchronous endpoint takes; empty
	// means all defaults where the endpoint allows it.
	Request json.RawMessage `json:"request,omitempty"`
}

// SubmitJob validates, canonicalizes, and submits one async job. The
// heavy work happens on the engine's goroutine through the service's
// normal pool admission; validation failures surface here, so a
// submitted job is always a well-formed computation.
func (s *Service) SubmitJob(kind string, raw []byte) (*jobs.Job, error) {
	key, runner, err := s.prepareJob(kind, raw)
	if err != nil {
		return nil, err
	}
	j, err := s.jobsEng.Submit(kind, jobs.Key(key), raw, runner)
	if err != nil {
		return nil, &Error{Status: http.StatusServiceUnavailable, Msg: err.Error()}
	}
	return j, nil
}

// Job returns the tracked job with the given id.
func (s *Service) Job(id string) (*jobs.Job, bool) { return s.jobsEng.Get(id) }

// CancelJob requests cancellation of a job; its context cancels, which
// aborts the underlying campaign.
func (s *Service) CancelJob(id string) (*jobs.Job, bool) { return s.jobsEng.Cancel(id) }

// prepareJob looks kind up in the kind table and prepares raw for it:
// the canonical store key and the runner that serves it. Admission-time
// validation runs here; the runner only ever sees the prepared request.
func (s *Service) prepareJob(kind string, raw []byte) (cacheKey, jobs.Runner, error) {
	k, ok := kindTable[kind]
	if !ok {
		return cacheKey{}, nil, badRequest("unknown job kind %q (have: %s)", kind, strings.Join(JobKinds(), " "))
	}
	req, err := k.prepare(s, raw)
	if err != nil {
		return cacheKey{}, nil, err
	}
	return req.key, func(ctx context.Context, emit func(jobs.Event)) ([]byte, bool, *jobs.ErrorInfo) {
		return s.runJob(ctx, req, emit)
	}, nil
}

// runJob is a job's runner: the prepared request served into the job's
// event log.
func (s *Service) runJob(ctx context.Context, req request, emit func(jobs.Event)) ([]byte, bool, *jobs.ErrorInfo) {
	b, hit, err := s.run(ctx, &req, nil, eventSink(&req, emit))
	if err != nil {
		return nil, false, errorInfo(err)
	}
	if req.items > 0 {
		// A batch ends its own event log; the engine appends the cache and
		// result events of every other kind.
		emit(jobs.BatchDoneEvent(req.items))
	}
	return b, hit, nil
}

// handleJobs serves POST /v1/jobs: validate, submit, 202 + status.
func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, methodNotAllowed(http.MethodPost))
		return
	}
	body, err := readBody(w, r, MaxBatchBodyBytes)
	if err != nil {
		writeError(w, err)
		return
	}
	req, err := decodeStrict[SubmitRequest](body)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Kind == "" {
		writeError(w, badRequest("missing job kind (have: %s)", strings.Join(JobKinds(), " ")))
		return
	}
	j, err := s.SubmitJob(req.Kind, req.Request)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(j.Status())
}

// handleJob serves /v1/jobs/{id} (GET status or ?stream=1, DELETE
// cancel) and /v1/jobs/{id}/result (GET the stored outcome).
func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, hasSub := strings.Cut(rest, "/")
	if id == "" || (hasSub && sub != "result") {
		writeError(w, &Error{Status: http.StatusNotFound, Msg: "use /v1/jobs/{id} or /v1/jobs/{id}/result"})
		return
	}
	if hasSub {
		if r.Method != http.MethodGet {
			writeError(w, methodNotAllowed(http.MethodGet))
			return
		}
		s.handleJobResult(w, id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		j, ok := s.Job(id)
		if !ok {
			writeError(w, jobNotFound(id))
			return
		}
		if WantsStream(r) {
			s.streamJob(w, r, j)
			return
		}
		writeJSON(w, j.Status())
	case http.MethodDelete:
		j, ok := s.CancelJob(id)
		if !ok {
			writeError(w, jobNotFound(id))
			return
		}
		writeJSON(w, j.Status())
	default:
		writeError(w, methodNotAllowed("GET, DELETE"))
	}
}

func jobNotFound(id string) *Error {
	return &Error{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown job %q", id)}
}

// handleJobResult serves a terminal job's outcome: the result bytes
// (byte-identical to the synchronous response) when done, the original
// classified failure when failed, a 409 while running or after cancel.
func (s *Service) handleJobResult(w http.ResponseWriter, id string) {
	j, ok := s.Job(id)
	if !ok {
		writeError(w, jobNotFound(id))
		return
	}
	b, state, fail, done := j.Result()
	switch {
	case !done:
		writeError(w, &Error{Status: http.StatusConflict, Code: "pending", Msg: fmt.Sprintf("job %s still running", id)})
	case state == jobs.StateCanceled:
		writeError(w, &Error{Status: http.StatusConflict, Code: "canceled", Msg: fmt.Sprintf("job %s was canceled", id)})
	case state == jobs.StateInterrupted:
		writeError(w, &Error{Status: http.StatusConflict, Code: "interrupted", Msg: fmt.Sprintf("job %s was interrupted by a restart before completing; resubmit the request", id)})
	case state == jobs.StateFailed:
		writeError(w, &Error{Status: statusForCode(fail.Code), Code: fail.Code, Msg: fail.Message})
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	}
}

// statusForCode inverts codeForStatus for replaying a stored failure.
func statusForCode(code string) int {
	switch code {
	case "bad_request":
		return http.StatusBadRequest
	case "not_found":
		return http.StatusNotFound
	case "method_not_allowed":
		return http.StatusMethodNotAllowed
	case "conflict", "pending", "canceled", "interrupted":
		return http.StatusConflict
	case "payload_too_large":
		return http.StatusRequestEntityTooLarge
	case "saturated", "client_saturated":
		return http.StatusTooManyRequests
	case "unavailable":
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// streamJob streams a job's typed events as chunked JSON lines: the
// full event history first (late subscribers replay progress as one
// fresh line), then live events until the job is terminal. The line
// schema is exactly the synchronous ?stream=1 schema, so one client
// parser serves both. A connection that cannot stream degrades to the
// buffered status document.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, j *jobs.Job) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, j.Status())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Accel-Buffering", "no")

	var ws jobs.WatchState
	for {
		evs, terminal, updated := j.Watch(&ws)
		for _, ev := range evs {
			writeEvent(w, ev)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}

var errJSONEncode = errors.New("service: event encoding failed")

// writeEvent emits one typed stream line.
func writeEvent(w http.ResponseWriter, ev jobs.Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		// Unreachable for well-formed events; keep the stream parseable.
		b, _ = json.Marshal(jobs.ErrorEvent(*errorInfo(errJSONEncode)))
	}
	_, _ = w.Write(append(b, '\n'))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
