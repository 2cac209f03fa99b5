package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"

	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/service"
)

// Batch scatter-gather. A batch mixing plants would, forwarded whole,
// land every item on one replica and leave the other shards' kernel
// memos cold. Instead the gateway routes each item by its own plant
// fingerprint, posts one sub-batch per owning replica, and merges the
// answers back in item order. The merged body is byte-identical to a
// single replica's response for the same batch: each sub-batch body is
// validated once and its item bytes are cut out of it unchanged
// (splitItems), and the envelope is written by the one function the
// replicas write theirs with, service.BatchResult.AppendJSON.

// batchGroup is the slice of a batch owned by one replica.
type batchGroup struct {
	rep     *replica
	indices []int // global item index per sub-batch position
	items   []json.RawMessage
}

// splitBatch performs the same strict envelope decode the replicas do.
// ok is false whenever the body would fail that decode — the caller
// then forwards the body whole, so the rejection is the replica's
// canonical one.
func splitBatch(body []byte) (items []json.RawMessage, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := dec.Decode(&env); err != nil {
		return nil, false
	}
	if dec.More() {
		return nil, false
	}
	return env.Items, true
}

// groupItems assigns every item its ring owner, preserving relative
// item order inside each group. Nil when no replica is ready.
func (g *Gateway) groupItems(items []json.RawMessage) []*batchGroup {
	byRep := make(map[*replica]*batchGroup)
	var groups []*batchGroup
	for i, item := range items {
		key, _ := service.RouteKey("analyze", item)
		rep := g.pickAffinity(key)
		if rep == nil {
			return nil
		}
		grp := byRep[rep]
		if grp == nil {
			grp = &batchGroup{rep: rep}
			byRep[rep] = grp
			groups = append(groups, grp)
		}
		grp.indices = append(grp.indices, i)
		grp.items = append(grp.items, item)
	}
	return groups
}

// subBody rebuilds one group's sub-batch envelope.
func (grp *batchGroup) subBody() []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"items":[`)
	for i, item := range grp.items {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(item)
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

// handleBatch serves /v1/analyze/batch. Bodies the gateway cannot (or
// need not) split — malformed envelopes, wrong methods, zero or
// over-limit item counts, affinity off, a single owning replica —
// forward whole, keeping every response byte-identical to a direct
// replica's. Everything else scatter-gathers.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readCapped(r, service.MaxBatchBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
		return
	}
	forwardWhole := func() {
		g.proxy(w, r, func() *replica { return g.pick(service.BatchResult{}.Kind(), body) }, body)
	}
	if r.Method != http.MethodPost || g.opt.NoAffinity {
		forwardWhole()
		return
	}
	items, ok := splitBatch(body)
	if !ok || len(items) == 0 || len(items) > service.MaxBatchItems {
		forwardWhole()
		return
	}
	groups := g.groupItems(items)
	if groups == nil {
		writeNoReplica(w)
		return
	}
	if len(groups) == 1 {
		forwardWhole()
		return
	}
	if service.WantsStream(r) {
		g.scatterStream(w, r, groups, len(items))
		return
	}
	g.scatterBuffered(w, r, groups, len(items))
}

// subResult is one group's collected buffered response.
type subResult struct {
	status     int
	header     http.Header
	body       []byte
	netErr     bool // replica unreachable, nothing received
	cancelHint error
}

// itemErrRe matches the replica's per-item validation message prefix,
// whose index is sub-batch-local and must be remapped to the caller's
// numbering.
var itemErrRe = regexp.MustCompile(`^item (\d+): `)

// scatterBuffered fans the groups out in parallel and merges the
// bodies. On failure it reproduces exactly what a single replica would
// have said: the error of the smallest failing global item index, with
// the index remapped into the caller's numbering.
func (g *Gateway) scatterBuffered(w http.ResponseWriter, r *http.Request, groups []*batchGroup, n int) {
	header := clientHeader(r)
	results := make([]subResult, len(groups))
	var wg sync.WaitGroup
	for gi, grp := range groups {
		gi, grp := gi, grp
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.send(r.Context(), grp.rep, http.MethodPost, "/v1/analyze/batch", header, grp.subBody())
			if err != nil {
				results[gi] = subResult{netErr: true, cancelHint: err}
				return
			}
			if resp == nil {
				results[gi] = subResult{netErr: true}
				return
			}
			defer resp.Body.Close()
			b, rerr := io.ReadAll(io.LimitReader(resp.Body, service.MaxBatchBodyBytes*4))
			if rerr != nil {
				results[gi] = subResult{netErr: true}
				return
			}
			results[gi] = subResult{status: resp.StatusCode, header: resp.Header, body: b}
		}()
	}
	wg.Wait()

	// A transport failure fails the whole batch: partial merges would
	// break the byte-identity promise.
	for _, res := range results {
		if res.netErr {
			if res.cancelHint != nil {
				writeErr(w, http.StatusServiceUnavailable, "unavailable", "canceled: "+res.cancelHint.Error(), 0)
				return
			}
			writeErr(w, http.StatusServiceUnavailable, "unavailable", "replica unreachable during batch", 0)
			return
		}
	}

	// Pick the failure a single replica would have reported first: the
	// smallest failing global index.
	failGroup, failGlobal := -1, n
	for gi, res := range results {
		if res.status == http.StatusOK {
			continue
		}
		global := groups[gi].indices[0]
		if m := itemErrRe.FindSubmatch(errMessage(res.body)); m != nil {
			var local int
			fmt.Sscanf(string(m[1]), "%d", &local)
			if local >= 0 && local < len(groups[gi].indices) {
				global = groups[gi].indices[local]
			}
		}
		if global < failGlobal {
			failGroup, failGlobal = gi, global
		}
	}
	if failGroup >= 0 {
		res := results[failGroup]
		code, msg := errCodeMessage(res.body)
		msg = string(itemErrRe.ReplaceAll([]byte(msg), []byte(fmt.Sprintf("item %d: ", failGlobal))))
		var retryAfter int
		fmt.Sscanf(res.header.Get("Retry-After"), "%d", &retryAfter)
		writeErr(w, res.status, code, msg, retryAfter)
		return
	}

	// All groups answered 200: merge items back into caller order.
	merged := make([]json.RawMessage, n)
	allHit := true
	for gi, res := range results {
		items, ok := splitItems(res.body)
		if !ok || len(items) != len(groups[gi].indices) {
			writeErr(w, http.StatusBadGateway, "internal", "replica returned an unmergeable batch body", 0)
			return
		}
		for li, item := range items {
			merged[groups[gi].indices[li]] = item
		}
		if res.header.Get("X-Cache") != "hit" {
			allHit = false
		}
	}
	out := service.BatchResult{
		Meta:  experiments.Meta{Kind: service.BatchResult{}.Kind(), Schema: experiments.SchemaVersion, Items: n},
		Items: merged,
	}
	w.Header().Set("Content-Type", "application/json")
	if allHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	_, _ = w.Write(out.AppendJSON(nil))
}

// splitItems returns the elements of a batch envelope's top-level
// "items" array as sub-slices of body, in one scan after one validity
// check. It accepts a body only where json.Unmarshal into
// struct{ Items []json.RawMessage } gives the same elements: valid JSON
// whose top level is an object with exactly one key encoding/json would
// match to Items (case-insensitively; a key holding an escape is
// refused outright), and that key's value is an array.
func splitItems(body []byte) (items []json.RawMessage, ok bool) {
	if !json.Valid(body) {
		return nil, false
	}
	i := skipSpace(body, 0)
	if body[i] != '{' {
		return nil, false
	}
	for i = skipSpace(body, i+1); body[i] != '}'; {
		end := skipString(body, i)
		key := body[i+1 : end-1]
		i = skipSpace(body, skipSpace(body, end)+1) // past the colon
		switch {
		case bytes.IndexByte(key, '\\') >= 0:
			return nil, false
		case bytes.EqualFold(key, []byte("items")):
			if ok || body[i] != '[' {
				return nil, false
			}
			ok = true
			for i = skipSpace(body, i+1); body[i] != ']'; {
				end := skipValue(body, i)
				items = append(items, body[i:end:end])
				if i = skipSpace(body, end); body[i] == ',' {
					i = skipSpace(body, i+1)
				}
			}
			i++
		default:
			i = skipValue(body, i)
		}
		if i = skipSpace(body, i); body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	return items, ok
}

// The scanners below walk bytes json.Valid has accepted, so they never
// meet a malformed token or run off the end of the body.

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string opening at b[i].
func skipString(b []byte, i int) int {
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// skipValue returns the index just past the value starting at b[i],
// tracking the nesting depth of objects and arrays.
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		for depth := 0; ; {
			switch b[i] {
			case '"':
				i = skipString(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
	}
	// A number, true, false or null runs to the next delimiter.
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
			return i
		}
	}
	return i
}

// errMessage extracts the message field of an error envelope body.
func errMessage(body []byte) []byte {
	_, msg := errCodeMessage(body)
	return []byte(msg)
}

func errCodeMessage(body []byte) (code, message string) {
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return "internal", strings.TrimSpace(string(body))
	}
	return env.Error.Code, env.Error.Message
}

// streamLine is one ordered event from a sub-stream: an item line keyed
// by its global index, or a terminal error.
type streamLine struct {
	global int
	data   []byte // rewritten line, newline-terminated
	err    *jobs.Event
	done   bool // group terminator seen
}

// scatterStream serves a split batch with ?stream=1: sub-streams run
// concurrently, and item lines are re-emitted in strict global item
// order (buffering ahead-of-order arrivals), exactly like a single
// replica's stream. A sub-stream failure surfaces as the terminal
// {"type":"error"} line after the in-order prefix.
func (g *Gateway) scatterStream(w http.ResponseWriter, r *http.Request, groups []*batchGroup, n int) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		// Mirror the replica rule: a connection that cannot stream gets
		// the buffered response.
		g.scatterBuffered(w, r, groups, n)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	header := clientHeader(r)
	lines := make(chan streamLine, 64)
	var wg sync.WaitGroup
	for _, grp := range groups {
		grp := grp
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.streamGroup(ctx, grp, header, lines)
		}()
	}
	go func() { wg.Wait(); close(lines) }()

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Accel-Buffering", "no")

	pending := make(map[int][]byte, n)
	next := 0
	var streamErr *jobs.Event
	for line := range lines {
		switch {
		case line.err != nil:
			if streamErr == nil {
				streamErr = line.err
			}
			cancel() // stop the healthy sub-streams; the batch has failed
		case line.done:
		default:
			pending[line.global] = line.data
			for b, ok := pending[next]; ok; b, ok = pending[next] {
				delete(pending, next)
				next++
				if _, err := w.Write(b); err != nil {
					cancel()
				}
				flusher.Flush()
			}
		}
	}
	if streamErr != nil {
		writeEventLine(w, *streamErr)
		flusher.Flush()
		return
	}
	writeEventLine(w, jobs.BatchDoneEvent(n))
	flusher.Flush()
}

// streamGroup runs one sub-batch stream, remapping item indices into
// the caller's numbering.
func (g *Gateway) streamGroup(ctx context.Context, grp *batchGroup, header http.Header, lines chan<- streamLine) {
	fail := func(code, msg string) {
		ev := jobs.ErrorEvent(jobs.ErrorInfo{Code: code, Message: msg})
		lines <- streamLine{err: &ev}
	}
	resp, err := g.send(ctx, grp.rep, http.MethodPost, "/v1/analyze/batch?stream=1", header, grp.subBody())
	if err != nil {
		fail("unavailable", "canceled: "+err.Error())
		return
	}
	if resp == nil {
		fail("unavailable", "replica unreachable during batch")
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		code, msg := errCodeMessage(b)
		fail(code, msg)
		return
	}
	sc := newLineScanner(resp.Body)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fail("internal", "unparseable replica stream line")
			return
		}
		switch ev.Type {
		case jobs.EventItem:
			if ev.Index == nil || *ev.Index < 0 || *ev.Index >= len(grp.indices) {
				fail("internal", "replica stream item index out of range")
				return
			}
			global := grp.indices[*ev.Index]
			ev.Index = &global
			b, err := json.Marshal(ev)
			if err != nil {
				fail("internal", err.Error())
				return
			}
			lines <- streamLine{global: global, data: append(b, '\n')}
		case jobs.EventResult:
			lines <- streamLine{done: true}
			return
		case jobs.EventError:
			e := ev
			lines <- streamLine{err: &e}
			return
		default:
			// progress/cache lines never occur on a batch stream; drop
			// anything schema-unknown rather than corrupting order.
		}
	}
	if ctx.Err() == nil {
		fail("unavailable", "replica stream ended without a terminator")
	} else {
		fail("unavailable", "canceled: "+ctx.Err().Error())
	}
}

// newLineScanner builds a scanner sized for stream lines carrying
// whole embedded results.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	return sc
}

// writeEventLine emits one typed stream line, exactly like the
// replicas' event writer.
func writeEventLine(w io.Writer, ev jobs.Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	_, _ = w.Write(append(b, '\n'))
}
