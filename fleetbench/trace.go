package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. The client spans wrap the benchmark's own calls; the
// rest wrap the program's handlers and the gateway's outbound client
// from outside, without touching the program.
const (
	spanClient   = "client"
	spanSubmit   = "client.submit" // job workload: POST /v1/jobs
	spanWait     = "client.wait"   // job workload: GET /v1/jobs/{id}?stream=1 to terminal
	spanResult   = "client.result" // job workload: GET /v1/jobs/{id}/result
	spanGateway  = "gateway"
	spanUpstream = "gateway.upstream"
	spanHandler  = "service.handler"
)

// clientHeaderPrefix prefixes the X-Client identity of benchmark
// client n; the gateway forwards the header to the replicas.
const clientHeaderPrefix = "bench-"

// nClients is the number of closed-loop clients.
const nClients = 2

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch. Parent is an index into the
// span list, or -1.
type span struct {
	Name    string `json:"name"`
	Client  int    `json:"client"`
	Request int64  `json:"request"`
	Replica int    `json:"replica"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// clientSlot is what every wrapper needs to know about a benchmark
// client: whether its current request is traced and which request it
// is. A client has at most one request in flight, so the slot is
// unambiguous while that request's layers run.
type clientSlot struct {
	request atomic.Int64
	traced  atomic.Bool
}

// tracer records spans in memory, outside the Go heap (see offHeap),
// so a traced run's growing span list does not change how often the
// collector runs. Tracing is per client request: a wrapper records
// only while the request's client has traced set, so an untraced
// request pays one header parse and one atomic load per layer.
type tracer struct {
	epoch   time.Time
	clients [nClients]clientSlot

	mu      sync.Mutex
	spans   *offHeap // nil until the first span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// clientOf maps an X-Client header to a benchmark client index, -1 for
// any other caller (health probes, the benchmark's own reads).
func clientOf(h http.Header) int {
	id := h.Get("X-Client")
	if !strings.HasPrefix(id, clientHeaderPrefix) {
		return -1
	}
	n, err := strconv.Atoi(id[len(clientHeaderPrefix):])
	if err != nil || n < 0 || n >= nClients {
		return -1
	}
	return n
}

// active reports whether client c's current request is traced.
func (t *tracer) active(c int) bool { return c >= 0 && t.clients[c].traced.Load() }

// spanNames indexes the span names for the off-heap record, whose
// layout is: name index, client, replica+1 (one byte each), padding,
// request index, start, end (int64 each).
var spanNames = []string{spanClient, spanSubmit, spanWait, spanResult, spanGateway, spanUpstream, spanHandler}

const (
	spanRecordSize = 32
	maxSpans       = 1 << 22
)

func (t *tracer) record(name string, c, replica int, start int64) {
	end := t.now()
	request := t.clients[c].request.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans == nil {
		var err error
		if t.spans, err = newOffHeap(spanRecordSize, maxSpans); err != nil {
			t.dropped++
			return
		}
	}
	r, err := t.spans.next()
	if err != nil {
		t.dropped++
		return
	}
	for k, n := range spanNames {
		if n == name {
			r[0] = byte(k)
		}
	}
	r[1], r[2] = byte(c), byte(replica+1)
	binary.LittleEndian.PutUint64(r[8:], uint64(request))
	binary.LittleEndian.PutUint64(r[16:], uint64(start))
	binary.LittleEndian.PutUint64(r[24:], uint64(end))
}

// handler wraps one server's handler with a span per traced request.
func (t *tracer) handler(name string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := clientOf(r.Header)
		if !t.active(c) {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		// Deferred so an aborted handler (http.ErrAbortHandler) still
		// closes its span.
		defer t.record(name, c, replica, start)
		h.ServeHTTP(w, r)
	})
}

// snapshot returns the recorded spans, on the heap, with parents
// linked. It fails when spans were dropped.
func (t *tracer) snapshot() ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dropped > 0 {
		return nil, fmt.Errorf("%d spans dropped: %w", t.dropped, errOffHeapFull)
	}
	var out []span
	if t.spans != nil {
		out = make([]span, t.spans.n)
		for k := range out {
			r := t.spans.at(k)
			out[k] = span{
				Name:    spanNames[r[0]],
				Client:  int(r[1]),
				Replica: int(r[2]) - 1,
				Request: int64(binary.LittleEndian.Uint64(r[8:])),
				Start:   int64(binary.LittleEndian.Uint64(r[16:])),
				End:     int64(binary.LittleEndian.Uint64(r[24:])),
				Parent:  -1,
			}
		}
	}
	linkParents(out)
	return out, nil
}

// free releases the span buffer.
func (t *tracer) free() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans != nil {
		t.spans.free()
		t.spans = nil
	}
}

// upstream is the gateway's outbound RoundTripper: it counts /v1/ calls
// per replica on every request and records a gateway.upstream span,
// from the call until the gateway closes the response body, for traced
// ones.
type upstream struct {
	base  *http.Transport
	t     *tracer
	calls [len(replicaNames)]atomic.Int64
}

func newUpstream(base *http.Transport, t *tracer) *upstream { return &upstream{base: base, t: t} }

func replicaOf(host string) int {
	for i, name := range replicaNames {
		if hostOf(name) == host {
			return i
		}
	}
	return -1
}

func (u *upstream) RoundTrip(req *http.Request) (*http.Response, error) {
	rep := replicaOf(req.URL.Host)
	if rep >= 0 && strings.HasPrefix(req.URL.Path, "/v1/") {
		u.calls[rep].Add(1)
	}
	c := clientOf(req.Header)
	if !u.t.active(c) {
		return u.base.RoundTrip(req)
	}
	start := u.t.now()
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		u.t.record(spanUpstream, c, rep, start)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { u.t.record(spanUpstream, c, rep, start) }}
	return resp, nil
}

// spanBody ends an upstream span when the gateway closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// parentName is the layer each span name nests in.
var parentName = map[string]string{
	spanSubmit:   spanClient,
	spanWait:     spanClient,
	spanResult:   spanClient,
	spanGateway:  spanClient,
	spanUpstream: spanGateway,
	spanHandler:  spanUpstream,
}

// linkParents sets each span's parent by time containment: the parent
// is the span of the enclosing layer, of the same client (and, for a
// replica handler, the same replica), whose interval contains the
// child's. Each client has at most one request in flight, so at most
// one client span and one gateway span can contain a child; the
// gateway's concurrent sub-batch calls go to different replicas.
func linkParents(spans []span) {
	type group struct {
		name            string
		client, replica int
	}
	byGroup := make(map[group][]int)
	for i, s := range spans {
		g := group{s.Name, s.Client, -1}
		if s.Name == spanUpstream {
			g.replica = s.Replica
		}
		byGroup[g] = append(byGroup[g], i)
	}
	for _, idx := range byGroup {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		pn, ok := parentName[s.Name]
		if !ok {
			continue
		}
		g := group{pn, s.Client, -1}
		if pn == spanUpstream {
			g.replica = s.Replica
		}
		cands := byGroup[g]
		// The last candidate starting at or before the child is the only
		// one that can contain it.
		k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > s.Start }) - 1
		if k >= 0 && spans[cands[k]].End >= s.End {
			s.Parent = cands[k]
		}
	}
}

// selfTimes returns, for every span named name, its duration minus the
// union of its children's intervals (children may overlap each other,
// as a batch's concurrent sub-batch calls do).
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, float64(s.dur()-unionLen(children[i])))
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// transportTimes returns, for every upstream span with a replica
// handler child, the upstream duration minus the handler's: connection,
// request and response transfer as the gateway sees them.
func transportTimes(spans []span) []float64 {
	handler := make(map[int]int64)
	for _, s := range spans {
		if s.Name == spanHandler && s.Parent >= 0 {
			handler[s.Parent] = s.dur()
		}
	}
	var out []float64
	for i, s := range spans {
		if h, ok := handler[i]; ok && s.Name == spanUpstream {
			out = append(out, float64(s.dur()-h))
		}
	}
	return out
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns", spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
