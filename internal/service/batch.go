package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/experiments"
)

// kindAnalyzeBatch is the request kind of the batched analyze endpoint.
const kindAnalyzeBatch = "analyze_batch"

// MaxBatchItems bounds one /v1/analyze/batch request. Larger workloads
// split into multiple batches; the per-item cache makes re-sent items
// free.
const MaxBatchItems = 1024

// BatchRequest is the body of POST /v1/analyze/batch: up to
// MaxBatchItems independent analyze queries (each shaped exactly like a
// /v1/analyze body) answered in one round trip. Items are fanned out on
// the service's campaign pool and answered in item order; each item has
// its own cache key, shared with the single /v1/analyze endpoint, so
// hits are served from the LRU and concurrent identical items coalesce
// onto one computation.
type BatchRequest struct {
	Items []AnalyzeRequest `json:"items"`
}

// normalize validates the batch envelope and canonicalizes every item.
func (r BatchRequest) normalize() (BatchRequest, error) {
	if len(r.Items) == 0 {
		return r, badRequest("batch needs at least one item")
	}
	if len(r.Items) > MaxBatchItems {
		return r, badRequest("%d items exceed the %d-item batch limit", len(r.Items), MaxBatchItems)
	}
	items := make([]AnalyzeRequest, len(r.Items))
	for i, item := range r.Items {
		norm, err := item.normalize()
		if err != nil {
			return r, badRequest("item %d: %v", i, err)
		}
		items[i] = norm
	}
	r.Items = items
	return r, nil
}

// canonical marshals every item once and joins them into the batch's
// canonical bytes, equal to json.Marshal(r): the batch key is hashed
// from them, and items[i] — a sub-slice of them, equal to
// json.Marshal(r.Items[i]) — keys item i.
func (r BatchRequest) canonical() (batch []byte, items [][]byte, err error) {
	var buf bytes.Buffer
	buf.WriteString(`{"items":[`)
	enc := json.NewEncoder(&buf) // escapes HTML, like json.Marshal
	spans := make([][2]int, len(r.Items))
	for i, item := range r.Items {
		if i > 0 {
			buf.WriteByte(',')
		}
		spans[i][0] = buf.Len()
		if err := enc.Encode(item); err != nil {
			return nil, nil, fmt.Errorf("service: canonicalize: %w", err)
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
		spans[i][1] = buf.Len()
	}
	buf.WriteString(`]}`)
	batch = buf.Bytes()
	items = make([][]byte, len(r.Items))
	for i, sp := range spans {
		items[i] = batch[sp[0]:sp[1]:sp[1]]
	}
	return batch, items, nil
}

// BatchResult is the typed response of /v1/analyze/batch. Items[i] holds
// the canonical AnalyzeResult bytes of request item i, or the
// deterministic error envelope {"error":"..."} when that item fails at
// run time (an item failure does not fail its siblings). It satisfies
// experiments.Result, so the CLI shares the render paths.
type BatchResult struct {
	Meta  experiments.Meta  `json:"meta"`
	Items []json.RawMessage `json:"items"`
}

// Kind identifies the request kind that produced this result.
func (r BatchResult) Kind() string { return kindAnalyzeBatch }

// AppendJSON appends the envelope's canonical encoding to dst: the
// bytes encoding/json writes for r with HTML escaping off, newline
// included. Only Meta goes through encoding/json; each item is copied
// as it is, so it must already be compact JSON, as every replica's item
// bytes are. Replicas and the gateway's batch merge both write their
// envelopes here.
func (r BatchResult) AppendJSON(dst []byte) []byte {
	n := 128 + len(r.Items) // Meta's encoding is about 60 bytes
	for _, item := range r.Items {
		n += len(item)
	}
	buf := bytes.NewBuffer(append(slices.Grow(dst, n), `{"meta":`...))
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(r.Meta) // strings and ints: never fails
	dst = buf.Bytes()
	dst = dst[:len(dst)-1] // Encode's newline
	if r.Items == nil {
		return append(dst, `,"items":null}`+"\n"...)
	}
	dst = append(dst, `,"items":[`...)
	for i, item := range r.Items {
		if i > 0 {
			dst = append(dst, ',')
		}
		if item == nil {
			item = json.RawMessage("null")
		}
		dst = append(dst, item...)
	}
	return append(dst, "]}\n"...)
}

// SplitItems is the envelope's reader, as AppendJSON is its writer: the
// gateway splits batch requests and merges replica envelopes with it,
// and RouteKey routes a batch by it. It returns the elements of the
// top-level "items" array as sub-slices of body, in one scan that checks
// the JSON grammar as it cuts. It accepts a body only where
// json.Unmarshal into struct{ Items []json.RawMessage } gives the same
// elements: valid JSON whose top level is an object with exactly one key
// encoding/json would match to Items (case-insensitively; a key holding
// an escape is refused outright), and that key's value is an array.
// With strict set it also refuses every other top-level key, as the
// replicas' strict decode of a BatchRequest does; without it, other keys
// (a BatchResult's meta) are skipped.
func SplitItems(body []byte, strict bool) (items []json.RawMessage, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, false
	}
	if i = skipSpace(body, i+1); i < len(body) && body[i] == '}' {
		return nil, false // no items key
	}
	for {
		end := scanString(body, i)
		if end < 0 {
			return nil, false
		}
		key := body[i+1 : end-1]
		if i = skipSpace(body, end); i == len(body) || body[i] != ':' {
			return nil, false
		}
		i = skipSpace(body, i+1)
		switch {
		case bytes.IndexByte(key, '\\') >= 0:
			return nil, false
		case bytes.EqualFold(key, []byte("items")):
			if ok || i == len(body) || body[i] != '[' {
				return nil, false
			}
			ok = true
			if i = skipSpace(body, i+1); i < len(body) && body[i] == ']' {
				i++
				break
			}
			for {
				end := scanValue(body, i, 2) // inside the envelope and the array
				if end < 0 {
					return nil, false
				}
				items = append(items, body[i:end:end])
				if i = skipSpace(body, end); i == len(body) {
					return nil, false
				}
				if body[i] == ']' {
					i++
					break
				}
				if body[i] != ',' {
					return nil, false
				}
				i = skipSpace(body, i+1)
			}
		case strict:
			return nil, false
		default:
			if i = scanValue(body, i, 1); i < 0 {
				return nil, false
			}
		}
		if i = skipSpace(body, i); i == len(body) {
			return nil, false
		}
		if body[i] == '}' {
			break
		}
		if body[i] != ',' {
			return nil, false
		}
		i = skipSpace(body, i+1)
	}
	if !ok || skipSpace(body, i+1) != len(body) {
		return nil, false
	}
	return items, true
}

// The scanners below check the grammar encoding/json's scanner checks,
// byte for byte, and return -1 where it would fail. maxNestingDepth is
// its limit on open objects and arrays.
const maxNestingDepth = 10000

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanValue returns the index just past the value starting at b[i],
// which depth open objects and arrays enclose.
func scanValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '"':
		return scanString(b, i)
	case '{', '[':
		if depth++; depth > maxNestingDepth {
			return -1
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
			return i + 1
		}
		for {
			if c == '{' {
				if i = scanString(b, i); i < 0 {
					return -1
				}
				if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
					return -1
				}
				i = skipSpace(b, i+1)
			}
			if i = scanValue(b, i, depth); i < 0 {
				return -1
			}
			if i = skipSpace(b, i); i == len(b) {
				return -1
			}
			switch b[i] {
			case ',':
				i = skipSpace(b, i+1)
			case closer:
				return i + 1
			default:
				return -1
			}
		}
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	return scanNumber(b, i)
}

// scanString returns the index just past the string opening at b[i].
// Control bytes must be escaped; any other byte, valid UTF-8 or not, may
// appear as it is.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			if i++; i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// scanNumber returns the index just past the number starting at b[i]:
// an optional minus, an integer part without leading zeros, then an
// optional fraction and exponent, each with at least one digit.
func scanNumber(b []byte, i int) int {
	if b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return -1
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral returns the index just past lit at b[i].
func scanLiteral(b []byte, i int, lit string) int {
	if !bytes.HasPrefix(b[i:], []byte(lit)) {
		return -1
	}
	return i + len(lit)
}

// batchItemError is the in-band envelope of one failed item.
type batchItemError struct {
	Error string `json:"error"`
}

// decodeItem splits one response slot into its typed result or its error
// envelope.
func decodeItem(raw json.RawMessage) (*AnalyzeResult, string, error) {
	var probe batchItemError
	if err := json.Unmarshal(raw, &probe); err == nil && probe.Error != "" {
		return nil, probe.Error, nil
	}
	var res AnalyzeResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, "", err
	}
	return &res, "", nil
}

// Render prints every item's verdict in item order.
func (r BatchResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Batch analysis — %d items\n", len(r.Items))
	for i, raw := range r.Items {
		fmt.Fprintf(w, "--- item %d ---\n", i)
		res, itemErr, err := decodeItem(raw)
		switch {
		case err != nil:
			fmt.Fprintf(w, "  undecodable item: %v\n", err)
		case itemErr != "":
			fmt.Fprintf(w, "  error: %s\n", itemErr)
		default:
			res.Render(w)
		}
	}
}

// WriteCSV emits every item's rows, prefixed by an item-separator
// comment row so the concatenation stays splittable.
func (r BatchResult) WriteCSV(w io.Writer) {
	for i, raw := range r.Items {
		fmt.Fprintf(w, "# item %d\n", i)
		res, itemErr, err := decodeItem(raw)
		switch {
		case err != nil:
			fmt.Fprintf(w, "# undecodable item: %v\n", err)
		case itemErr != "":
			experiments.WriteCSVRow(w, "error", itemErr)
		default:
			res.WriteCSV(w)
		}
	}
}

// BatchItemFunc observes one completed batch item. Calls arrive in
// strict item order (0, 1, 2, …) regardless of the completion order of
// the underlying pool workers; data holds the item's canonical result
// bytes — or, for a failed item, nil with err set.
type BatchItemFunc func(index int, data []byte, hit bool, err error)

// batchOutcome is the collected result of one fanned-out item.
type batchOutcome struct {
	b   []byte
	hit bool
	err error
}

// AnalyzeBatch answers one batch analysis request. The batch occupies a
// single campaign-pool slot (like an experiment run) and fans its items
// out over the service's worker pool; each item goes through the shared
// per-item cache and flight coalescing. onItem, when non-nil, receives
// every completed item in item order — the streaming endpoint's per-item
// framing. The returned bytes are the canonical BatchResult envelope
// (deterministic: identical batches yield identical bytes, however the
// items were scheduled or cached); the bool reports whether every item
// was a cache hit. Cancellation aborts the fan-out: unstarted items are
// never computed, and since only complete item results are ever cached,
// an aborted batch leaves no partial state behind.
func (s *Service) AnalyzeBatch(ctx context.Context, raw []byte, onItem BatchItemFunc) ([]byte, bool, error) {
	return s.call(ctx, batchKind, raw, sink{item: onItem})
}

// runBatch computes one batch: every item is served as an analyze
// request, and out.item receives them in item order while the pool
// keeps computing ahead.
func (s *Service) runBatch(ctx context.Context, norm []AnalyzeRequest, canonical [][]byte, out sink) (experiments.Result, bool, error) {
	n := len(norm)
	items := make([]request, n)
	for i, item := range norm {
		items[i] = s.analyzeItem(item, canonical[i])
		items[i].kind = analyzeKind
	}
	outcomes := make([]batchOutcome, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	mapDone := make(chan error, 1)
	go func() {
		_, mapErr := campaign.MapPlain(n, campaign.Options{
			Workers: s.cfg.Workers,
			Abort:   ctx.Done(),
		}, func(i int) struct{} {
			b, hit, err := s.serve(ctx, &items[i], sink{})
			outcomes[i] = batchOutcome{b: b, hit: hit, err: err}
			close(ready[i])
			return struct{}{}
		})
		mapDone <- mapErr
	}()

	// Deliver items in strict item order; bail out as soon as the request
	// context dies.
	raws := make([]json.RawMessage, n)
	allHit := true
	for i := 0; i < n; i++ {
		select {
		case <-ready[i]:
		case <-ctx.Done():
			<-mapDone // workers observe the abort; no goroutine leaks
			return nil, false, canceledBatch(ctx.Err())
		}
		o := outcomes[i]
		if out.item != nil {
			out.item(i, o.b, o.hit, o.err)
		}
		switch {
		case o.err != nil:
			allHit = false
			// Deterministic in-band error envelope: an item failure (an
			// unstabilizable plant constraint, say) must not fail its
			// siblings, and identical batches must keep returning
			// identical bytes.
			env, err := json.Marshal(batchItemError{Error: o.err.Error()})
			if err != nil {
				<-mapDone
				return nil, false, err
			}
			raws[i] = env
		default:
			allHit = allHit && o.hit
			raws[i] = json.RawMessage(bytes.TrimRight(o.b, "\n"))
		}
	}
	if mapErr := <-mapDone; mapErr != nil {
		return nil, false, canceledBatch(mapErr)
	}
	return BatchResult{
		Meta:  experiments.Meta{Kind: kindAnalyzeBatch, Schema: experiments.SchemaVersion, Items: n},
		Items: raws,
	}, allHit, nil
}

func canceledBatch(err error) *Error {
	return &Error{Status: http.StatusServiceUnavailable, Msg: "canceled during batch: " + err.Error()}
}
