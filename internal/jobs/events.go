// Package jobs is the asynchronous execution layer of the service: a
// durable, content-addressed result store plus a job registry with a
// small lifecycle FSM (running → done | failed | canceled). The
// synchronous v1 endpoints and the /v1/jobs surface share it — a job is
// just a named handle on the same deterministic computation, so a
// job's result bytes are byte-identical to the synchronous response
// for the same canonical request. The service alone reads and writes
// the store; the job registry never touches it.
//
// The package is deliberately service-agnostic: it knows nothing about
// HTTP, experiment kinds, or request canonicalization. The service
// hands it a 32-byte canonical key and a Runner closure; classification
// of runner failures into transport codes happens on the service side
// and arrives here as an ErrorInfo.
package jobs

import "encoding/json"

// Event is the one typed streaming line schema every endpoint speaks —
// the jobs stream and the synchronous ?stream=1 endpoints emit exactly
// these lines:
//
//	{"type":"progress","done":128,"total":50000}
//	{"type":"cache","status":"hit"}
//	{"type":"item","index":3,"status":"miss","result":{...}}
//	{"type":"item","index":4,"error":{"code":"bad_request","message":"..."}}
//	{"type":"result","result":{...}}        — single-result requests
//	{"type":"result","done":64}             — batch terminator
//	{"type":"error","error":{"code":"unavailable","message":"..."}}
//
// Index is a pointer so item 0 survives encoding (omitempty would drop
// it). Result is raw canonical JSON, embedded untouched so the
// byte-identity promise extends through streams.
type Event struct {
	Type   string          `json:"type"`
	Done   int             `json:"done,omitempty"`
	Total  int             `json:"total,omitempty"`
	Status string          `json:"status,omitempty"`
	Index  *int            `json:"index,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *ErrorInfo      `json:"error,omitempty"`
}

// Event types.
const (
	EventProgress = "progress"
	EventCache    = "cache"
	EventItem     = "item"
	EventResult   = "result"
	EventError    = "error"
)

// ErrorInfo is the error body shared by the JSON error envelope
// {"error":{"code","message"}} and the stream/job error events.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ProgressEvent builds a progress line.
func ProgressEvent(done, total int) Event {
	return Event{Type: EventProgress, Done: done, Total: total}
}

// CacheEvent builds a cache-status line ("hit" or "miss").
func CacheEvent(hit bool) Event {
	return Event{Type: EventCache, Status: cacheStatus(hit)}
}

// ItemEvent builds a per-item result line for batch fan-outs.
func ItemEvent(index int, result json.RawMessage, hit bool) Event {
	i := index
	return Event{Type: EventItem, Index: &i, Status: cacheStatus(hit), Result: result}
}

// ItemErrorEvent builds a per-item failure line.
func ItemErrorEvent(index int, info ErrorInfo) Event {
	i := index
	return Event{Type: EventItem, Index: &i, Error: &info}
}

// ResultEvent builds the final result line of a single-result request.
func ResultEvent(result json.RawMessage) Event {
	return Event{Type: EventResult, Result: result}
}

// BatchDoneEvent builds the batch terminator line.
func BatchDoneEvent(count int) Event {
	return Event{Type: EventResult, Done: count}
}

// ErrorEvent builds a terminal failure line.
func ErrorEvent(info ErrorInfo) Event {
	return Event{Type: EventError, Error: &info}
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
