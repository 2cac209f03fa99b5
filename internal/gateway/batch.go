package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jobs"
	"ctrlsched/internal/service"
)

// Batch scatter-gather. A batch mixing plants would, forwarded whole,
// land every item on one replica and leave the other shards' kernel
// memos cold. Instead the gateway routes each item by its own plant
// fingerprint, posts one sub-batch per owning replica (a batch whose
// items share one owner is a scatter of one), and merges the answers
// back in item order. It merges only when every owner answered 200; on
// any other outcome it sends the original body through proxy, so every
// failure a client sees is a replica's own answer to the whole batch or
// the proxy's; only a 200 body that cannot be merged answers 502.
// The merged body is byte-identical to a single replica's response for
// the same batch: each sub-batch body is read into a buffer sized by
// its Content-Length (service.ReadSized), one scan validates it and
// cuts its item bytes out unchanged (service.SplitItems), and the
// envelope is written by the one function the replicas write theirs
// with, service.BatchResult.AppendJSON.

// batchGroup is the slice of a batch owned by one replica, and that
// replica's answer to it.
type batchGroup struct {
	rep     *replica
	indices []int // global item index per sub-batch position
	items   []json.RawMessage
	resp    *http.Response // set by scatter on a 200 answer
	body    []byte         // the whole body of a buffered answer
	lines   *bufio.Scanner // a streamed answer's lines
	relayed int            // item lines relayed from lines
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

// handleBatch serves /v1/analyze/batch. A splittable batch — a POST
// whose body is a strict envelope of 1..MaxBatchItems items, with
// affinity on — scatters to its items' owners. Everything else, and
// every batch whose scatter did not end in a 200 from each owner, goes
// whole through proxy, keeping the response a direct replica's.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readCapped(r, service.MaxBatchBodyBytes)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "read body: "+err.Error(), 0)
		return
	}
	if r.Method == http.MethodPost && !g.opt.NoAffinity {
		items, ok := service.SplitItems(body, true)
		if ok && len(items) > 0 && len(items) <= service.MaxBatchItems {
			if groups := g.groupItems(items); groups != nil && g.scatterMerge(w, r, groups, len(items)) {
				return
			}
		}
	}
	g.proxy(w, r, func() *replica { return g.pick(service.BatchResult{}.Kind(), body) }, body)
}

// scatterMerge scatters one batch and, when every owner answered 200,
// writes the merged response. It reports false, having written
// nothing, on any other outcome.
func (g *Gateway) scatterMerge(w http.ResponseWriter, r *http.Request, groups []*batchGroup, n int) bool {
	// Mirror the replica rule: a connection that cannot stream gets the
	// buffered response.
	flusher, stream := w.(http.Flusher)
	stream = stream && service.WantsStream(r)
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ok := g.scatter(ctx, cancel, clientHeader(r), groups, stream)
	defer func() {
		for _, grp := range groups {
			if grp.resp != nil {
				grp.resp.Body.Close()
			}
		}
	}()
	switch {
	case !ok:
		return false
	case stream:
		mergeStream(w, flusher, groups, n)
	default:
		mergeBuffered(w, groups, n)
	}
	return true
}

// scatter posts every group's sub-batch at once and returns once every
// owner has answered: a buffered sub-request with its whole body, read
// in its own goroutine, a streamed one with its status line. It reports
// whether every owner answered 200. The first other outcome — no
// answer, the request's context ended, a non-200 answer or a torn body
// — cancels the rest.
func (g *Gateway) scatter(ctx context.Context, cancel context.CancelFunc, header http.Header, groups []*batchGroup, stream bool) bool {
	uri := "/v1/analyze/batch"
	if stream {
		uri += "?stream=1"
	}
	var wg sync.WaitGroup
	for _, grp := range groups {
		grp := grp
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := g.send(ctx, grp.rep, http.MethodPost, uri, header, grp.subBody())
			if err != nil || resp == nil {
				cancel()
				return
			}
			if resp.StatusCode == http.StatusOK && !stream {
				const limit = service.MaxBatchBodyBytes * 4
				grp.body, err = service.ReadSized(io.LimitReader(resp.Body, limit), min(resp.ContentLength, limit))
			}
			if resp.StatusCode != http.StatusOK || err != nil {
				resp.Body.Close()
				cancel()
				return
			}
			grp.resp = resp
		}()
	}
	wg.Wait()
	for _, grp := range groups {
		if grp.resp == nil {
			return false
		}
	}
	return true
}

// mergeBuffered writes every group's items back in caller order under
// one envelope. A 200 body that does not split into its group's items
// answers 502: a partial merge is never served.
func mergeBuffered(w http.ResponseWriter, groups []*batchGroup, n int) {
	merged := make([]json.RawMessage, n)
	cache := "hit"
	for _, grp := range groups {
		items, ok := service.SplitItems(grp.body, false)
		if !ok || len(items) != len(grp.indices) {
			writeErr(w, http.StatusBadGateway, "internal", "replica returned an unmergeable batch body", 0)
			return
		}
		for li, item := range items {
			merged[grp.indices[li]] = item
		}
		if grp.resp.Header.Get("X-Cache") != "hit" {
			cache = "miss"
		}
	}
	out := service.BatchResult{
		Meta:  experiments.Meta{Kind: service.BatchResult{}.Kind(), Schema: experiments.SchemaVersion, Items: n},
		Items: merged,
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	_, _ = w.Write(out.AppendJSON(nil))
}

// mergeStream relays the sub-streams' item lines in global item order,
// renumbered into the caller's numbering, then the batch done line,
// exactly like a single replica's stream. An owner emits its items in
// its own order, so the next global item is always the next line of
// its owner's stream.
func mergeStream(w http.ResponseWriter, flusher http.Flusher, groups []*batchGroup, n int) {
	owner := make([]*batchGroup, n)
	for _, grp := range groups {
		for _, i := range grp.indices {
			owner[i] = grp
		}
		grp.lines = newLineScanner(grp.resp.Body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Accel-Buffering", "no")
	for i, grp := range owner {
		ev := grp.next()
		if ev.Type != jobs.EventItem || ev.Index == nil || *ev.Index != grp.relayed {
			endStream(w, flusher, ev)
			return
		}
		grp.relayed++
		*ev.Index = i
		writeEventLine(w, ev)
		flusher.Flush()
	}
	for _, grp := range groups {
		if ev := grp.next(); ev.Type != jobs.EventResult {
			endStream(w, flusher, ev)
			return
		}
	}
	writeEventLine(w, jobs.BatchDoneEvent(n))
	flusher.Flush()
}

// next reads the group's next stream line. A sub-stream that breaks off
// aborts the connection, as relay does.
func (grp *batchGroup) next() jobs.Event {
	var ev jobs.Event
	if !grp.lines.Scan() || json.Unmarshal(grp.lines.Bytes(), &ev) != nil {
		panic(http.ErrAbortHandler)
	}
	return ev
}

// endStream ends a merged stream at a line out of turn: a replica's
// error line ends it as it ended the replica's stream, and any other
// line aborts the connection.
func endStream(w io.Writer, flusher http.Flusher, ev jobs.Event) {
	if ev.Type != jobs.EventError {
		panic(http.ErrAbortHandler)
	}
	writeEventLine(w, ev)
	flusher.Flush()
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
