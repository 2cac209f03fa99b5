package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ctrlsched/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "regenerate golden files instead of comparing")

// batchBody builds a batch of n task-set items with per-item distinct
// parameters, so every item is its own cache entry.
func batchBody(n int) []byte {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf(
			`{"tasks":[{"bcet":0.001,"wcet":0.002,"period":%g},{"bcet":0.002,"wcet":0.005,"period":%g}]}`,
			0.01+float64(i)*1e-4, 0.05+float64(i)*1e-4)
	}
	return []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
}

func mustBatch(t *testing.T, s *Service, body []byte) ([]byte, bool) {
	t.Helper()
	b, hit, err := s.AnalyzeBatch(context.Background(), body, nil)
	if err != nil {
		t.Fatalf("AnalyzeBatch: %v", err)
	}
	return b, hit
}

func TestBatchDeterminism(t *testing.T) {
	body := batchBody(8)
	s := newTestService()
	first, hit := mustBatch(t, s, body)
	if hit {
		t.Fatal("fresh batch reported all-hit")
	}
	// Repeat on the same service: every item now hits the cache, bytes
	// identical.
	second, hit := mustBatch(t, s, body)
	if !hit {
		t.Fatal("repeated batch did not hit the per-item cache")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat returned different bytes:\n%s\n%s", first, second)
	}
	// Worker-count invariance on fresh services.
	w1, _ := mustBatch(t, New(Config{Workers: 1}), body)
	w8, _ := mustBatch(t, New(Config{Workers: 8}), body)
	if !bytes.Equal(w1, w8) || !bytes.Equal(first, w1) {
		t.Fatal("batch bytes differ across worker counts")
	}
}

// TestBatchItemsMatchSingleAnalyze pins the contract that a batch is
// exactly its items: slot i of the envelope carries the same canonical
// bytes the single /v1/analyze endpoint returns for that request, and
// the two share cache entries in both directions.
func TestBatchItemsMatchSingleAnalyze(t *testing.T) {
	s := newTestService()
	body := batchBody(4)
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	// Warm item 2 through the single endpoint first.
	itemRaw, err := json.Marshal(req.Items[2])
	if err != nil {
		t.Fatal(err)
	}
	single2, hit, err := s.Analyze(context.Background(), itemRaw)
	if err != nil || hit {
		t.Fatalf("single analyze: hit=%v err=%v", hit, err)
	}

	var hits []bool
	b, _, err := s.AnalyzeBatch(context.Background(), body, func(i int, data []byte, hit bool, err error) {
		if err != nil {
			t.Errorf("item %d errored: %v", i, err)
		}
		if i != len(hits) {
			t.Errorf("item %d delivered out of order (want %d)", i, len(hits))
		}
		hits = append(hits, hit)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 || !hits[2] || hits[0] || hits[1] || hits[3] {
		t.Fatalf("per-item cache status = %v, want only item 2 hit", hits)
	}
	var res BatchResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if got, want := string(res.Items[2]), strings.TrimRight(string(single2), "\n"); got != want {
		t.Fatalf("batch slot differs from single analyze:\n%s\nvs\n%s", got, want)
	}
	// And the reverse direction: items computed by the batch serve
	// subsequent single requests from the cache.
	item0Raw, _ := json.Marshal(req.Items[0])
	single0, hit, err := s.Analyze(context.Background(), item0Raw)
	if err != nil || !hit {
		t.Fatalf("single analyze after batch: hit=%v err=%v", hit, err)
	}
	if got := strings.TrimRight(string(single0), "\n"); got != string(res.Items[0]) {
		t.Fatal("single analyze after batch returned different bytes")
	}
}

// TestBatchItemError pins the in-band error envelope: a deterministic
// runtime failure in one item (an unstabilizable plant constraint) does
// not fail its siblings and keeps the whole response deterministic.
func TestBatchItemError(t *testing.T) {
	body := []byte(`{"items":[
		{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]},
		{"tasks":[{"bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},
		{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.02}]}
	]}`)
	s := newTestService()
	b, allHit, err := s.AnalyzeBatch(context.Background(), body, nil)
	if err != nil {
		t.Fatalf("batch with failing item must not fail: %v", err)
	}
	if allHit {
		t.Fatal("errored batch reported all-hit")
	}
	var res BatchResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(res.Items[1], &probe); err != nil || probe.Error == "" {
		t.Fatalf("item 1 should carry an error envelope, got %s", res.Items[1])
	}
	for _, i := range []int{0, 2} {
		var ar AnalyzeResult
		if err := json.Unmarshal(res.Items[i], &ar); err != nil || !ar.Schedulable {
			t.Fatalf("sibling item %d damaged by the failing item: %s", i, res.Items[i])
		}
	}
	// Errors are never cached, and re-running them stays deterministic.
	b2, _, err := s.AnalyzeBatch(context.Background(), body, nil)
	if err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("errored batch not byte-stable: err=%v", err)
	}
}

func TestBatchErrors(t *testing.T) {
	s := newTestService()
	big := `{"items":[` + strings.Repeat(`{"plant":"dc-servo","period":0.006},`, MaxBatchItems) +
		`{"plant":"dc-servo","period":0.006}]}`
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"no items", `{"items":[]}`, http.StatusBadRequest},
		{"unknown field", `{"item":[]}`, http.StatusBadRequest},
		{"too many items", big, http.StatusBadRequest},
		{"bad item", `{"items":[{"tasks":[{"bcet":2,"wcet":1,"period":1}]}]}`, http.StatusBadRequest},
		{"bad item method", `{"items":[{"tasks":[{"bcet":0.1,"wcet":0.2,"period":1}],"method":"zigzag"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, _, err := s.AnalyzeBatch(context.Background(), []byte(tc.body), nil)
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if got := HTTPStatus(err); got != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.name, got, tc.status, err)
		}
	}
	// A bad item names its index.
	_, _, err := s.AnalyzeBatch(context.Background(),
		[]byte(`{"items":[{"plant":"dc-servo","period":0.006},{"plant":"nonesuch","period":0.006}]}`), nil)
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Fatalf("item error does not name its index: %v", err)
	}
}

// TestBatchCancellation cancels a batch mid-flight and verifies the two
// invariants the streaming path depends on: the call fails with 503, and
// the cache holds no partial state — a subsequent identical batch
// returns exactly the bytes an untouched service computes.
func TestBatchCancellation(t *testing.T) {
	// Plant items are the slowest analyze kernels (LQG synthesis plus a
	// jitter-margin sweep each), so the fan-out is reliably still running
	// when the cancel lands after the first delivered item.
	items := make([]string, 24)
	for i := range items {
		items[i] = fmt.Sprintf(`{"plant":"dc-servo","period":%g}`, 0.004+float64(i)*1e-4)
	}
	body := []byte(`{"items":[` + strings.Join(items, ",") + `]}`)

	s := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := s.AnalyzeBatch(ctx, body, func(i int, data []byte, hit bool, err error) {
		if i == 0 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("canceled batch returned no error")
	}
	if got := HTTPStatus(err); got != http.StatusServiceUnavailable {
		t.Fatalf("canceled batch status = %d, want 503 (%v)", got, err)
	}

	// No partial state: the same service must now produce exactly what a
	// fresh service does, whether an item was cached before the cancel,
	// computed mid-cancel, or never started.
	after, _ := mustBatch(t, s, body)
	fresh, _ := mustBatch(t, New(Config{Workers: 2}), body)
	if !bytes.Equal(after, fresh) {
		t.Fatal("post-cancel batch bytes differ from a fresh service's")
	}
}

// TestBatchStreamHTTP drives the chunked endpoint: per-item lines arrive
// in item order with per-item cache status, terminated by a done line.
func TestBatchStreamHTTP(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := batchBody(3)
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	// Warm item 1 through the single endpoint.
	itemRaw, _ := json.Marshal(req.Items[1])
	resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", bytes.NewReader(itemRaw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(srv.URL+"/v1/analyze/batch?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	type line struct {
		Type   string          `json:"type"`
		Index  *int            `json:"index"`
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
		Done   *int            `json:"done"`
	}
	var lines []line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 items + done", len(lines))
	}
	for i := 0; i < 3; i++ {
		l := lines[i]
		if l.Type != "item" || l.Index == nil || *l.Index != i {
			t.Fatalf("line %d out of order: %+v", i, l)
		}
		want := "miss"
		if i == 1 {
			want = "hit"
		}
		if l.Status != want {
			t.Fatalf("item %d cache = %q, want %q", i, l.Status, want)
		}
		var ar AnalyzeResult
		if err := json.Unmarshal(l.Result, &ar); err != nil {
			t.Fatalf("item %d result undecodable: %v", i, err)
		}
	}
	if lines[3].Type != "result" || lines[3].Done == nil || *lines[3].Done != 3 {
		t.Fatalf("missing done line: %+v", lines[3])
	}

	// The plain endpoint on the now-fully-cached batch reports X-Cache
	// hit and returns the canonical envelope.
	resp, err = http.Post(srv.URL+"/v1/analyze/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q after streaming warmed every item", got)
	}
}

// TestBatchBodyLimits pins the endpoint's body cap: a batch sized to the
// documented MaxBatchItems limit (well over the single-analyze 1 MiB
// cap) must be accepted, and only genuinely oversized bodies get 413.
func TestBatchBodyLimits(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 1024 items of 25-task sets ≈ 2.9 MB: legal, and past 1 MiB.
	var tasks []string
	for j := 0; j < 25; j++ {
		tasks = append(tasks, fmt.Sprintf(`{"bcet":0.00001,"wcet":0.00002,"period":%g}`, 0.01+float64(j)*0.01))
	}
	item := `{"tasks":[` + strings.Join(tasks, ",") + `],"method":"rm"}`
	items := make([]string, MaxBatchItems)
	for i := range items {
		items[i] = item
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	if len(body) <= MaxBodyBytes {
		t.Fatalf("test body only %d bytes; does not exercise the batch cap", len(body))
	}
	resp, err := http.Post(srv.URL+"/v1/analyze/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-size batch rejected with %d", resp.StatusCode)
	}

	// Truly oversized bodies still 413.
	huge := body + strings.Repeat(" ", MaxBatchBodyBytes)
	resp, err = http.Post(srv.URL+"/v1/analyze/batch", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch got %d, want 413", resp.StatusCode)
	}
}

// TestBatchHammerRace mixes concurrent batches and single analyzes over
// an overlapping item set; run under -race this exercises the shared
// cache, flight map, and pool. Every response for the same request must
// be byte-identical.
func TestBatchHammerRace(t *testing.T) {
	s := New(Config{Workers: 2, MaxConcurrent: 3, CacheEntries: 64})
	body := batchBody(6)
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	ref, _ := mustBatch(t, New(Config{Workers: 2}), body)
	singleRefs := make([][]byte, len(req.Items))
	for i, item := range req.Items {
		raw, _ := json.Marshal(item)
		b, _, err := New(Config{Workers: 1}).Analyze(context.Background(), raw)
		if err != nil {
			t.Fatal(err)
		}
		singleRefs[i] = b
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				b, _, err := s.AnalyzeBatch(context.Background(), body, nil)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, ref) {
					errs <- fmt.Errorf("batch bytes diverged")
					return
				}
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				i := (g + rep) % len(req.Items)
				raw, _ := json.Marshal(req.Items[i])
				b, _, err := s.Analyze(context.Background(), raw)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, singleRefs[i]) {
					errs <- fmt.Errorf("single analyze bytes diverged for item %d", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// goldenBatchBody is the request of the committed analyze_batch.json
// fixture.
const goldenBatchBody = `{"items":[
	{"tasks":[
		{"name":"a","bcet":0.05,"wcet":0.1,"period":1},
		{"name":"b","bcet":0.1,"wcet":0.2,"period":2},
		{"name":"c","bcet":0.2,"wcet":0.4,"period":4}
	]},
	{"tasks":[{"bcet":1,"wcet":1,"period":1},{"bcet":1,"wcet":1,"period":1}]},
	{"plant":"dc-servo","period":0.006},
	{"tasks":[{"bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},
	{"tasks":[
		{"name":"x","bcet":0.002,"wcet":0.004,"period":0.012,"plant":"dc-servo"},
		{"name":"y","bcet":0.001,"wcet":0.003,"period":0.008,"plant":"fast-servo"}
	],"method":"unsafe"}
]}`

// TestGoldenAnalyzeBatch byte-compares a fixed batch response against the
// committed fixture, like the experiment goldens: a numerical regression
// in any analyze kernel (rta, jitter, lqg, assign) fails this test.
// Regenerate intentionally with
//
//	go test ./internal/service -run TestGolden -update
func TestGoldenAnalyzeBatch(t *testing.T) {
	got, _ := mustBatch(t, New(Config{Workers: 2}), []byte(goldenBatchBody))
	path := filepath.Join("testdata", "golden", "analyze_batch.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with `go test ./internal/service -run TestGolden -update`: %v", path, err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("batch response deviates from %s.\nIf the change is intentional, regenerate with `go test ./internal/service -run TestGolden -update` and commit the diff.\ngot:\n%s", path, got)
	}
}

// seededBatchBody builds a batch of n task-set items from rng. Task
// names hold the characters encoding/json escapes differently with and
// without HTML escaping, so the canonical request bytes and the echoed
// requests in the results both carry them.
func seededBatchBody(rng *rand.Rand, n int) []byte {
	names := []string{"", "a", "<b>&c", `q"uote\`, "line\u2028sep\u2029", "ünï ✓"}
	methods := []string{"", "backtracking", "unsafe", "rm"}
	req := BatchRequest{Items: make([]AnalyzeRequest, n)}
	for i := range req.Items {
		if rng.Intn(4) == 0 {
			req.Items[i] = AnalyzeRequest{Plant: "dc-servo", Period: 0.004 + float64(rng.Intn(40))*1e-4}
			continue
		}
		tasks := make([]TaskSpec, 1+rng.Intn(4))
		for j := range tasks {
			period := 0.01 * float64(1+rng.Intn(50))
			wcet := period * (0.01 + 0.1*rng.Float64())
			tasks[j] = TaskSpec{Name: names[rng.Intn(len(names))], BCET: wcet * (0.1 + 0.9*rng.Float64()), WCET: wcet, Period: period}
			if j > 0 && tasks[j].Name != "" {
				tasks[j].Name += fmt.Sprint(j) // distinct names within a set
			}
		}
		req.Items[i] = AnalyzeRequest{Tasks: tasks, Method: methods[rng.Intn(len(methods))]}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// TestBatchCanonicalMatchesMarshal pins the batch's request identity:
// the canonical bytes prepare assembles from items marshalled once equal
// json.Marshal of the normalized request, and each item's slice of them
// equals json.Marshal of that item. Batch keys, item keys and store
// addresses are hashed from these bytes, so they stay what they were.
func TestBatchCanonicalMatchesMarshal(t *testing.T) {
	s := newTestService()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		raw := seededBatchBody(rng, 1+rng.Intn(24))
		norm, err := decodeStrict[BatchRequest](raw)
		if err == nil {
			norm, err = norm.normalize()
		}
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, raw)
		}
		batch, items, err := norm.canonical()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch, want) {
			t.Fatalf("trial %d: canonical batch bytes\n%s\nwant json.Marshal's\n%s", trial, batch, want)
		}
		for i, item := range norm.Items {
			if w, _ := json.Marshal(item); !bytes.Equal(items[i], w) {
				t.Fatalf("trial %d item %d: canonical bytes\n%s\nwant\n%s", trial, i, items[i], w)
			}
		}
		req, err := batchKind.prepare(s, raw)
		if err != nil {
			t.Fatal(err)
		}
		if req.key != makeKey(kindAnalyzeBatch, want) {
			t.Fatalf("trial %d: prepared batch key differs from the key of json.Marshal's bytes", trial)
		}
	}
}

// TestBatchResultAppendJSONMatchesEncoder pins the envelope writer that
// replicas and the gateway share to the bytes encoding/json writes for
// the same BatchResult with HTML escaping off: real item bytes from
// seeded batches, error envelopes whose messages need escaping (both as
// json.Marshal writes them and with the characters left raw), metas
// whose kind needs escaping, and empty and nil item lists.
func TestBatchResultAppendJSONMatchesEncoder(t *testing.T) {
	s := newTestService()
	rng := rand.New(rand.NewSource(3))
	var real []json.RawMessage
	for i := 0; i < 3; i++ {
		b, _ := mustBatch(t, s, seededBatchBody(rng, 12))
		var res BatchResult
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatal(err)
		}
		real = append(real, res.Items...)
	}
	msgs := []string{"<script>&amp;</script>", `say "hi" \ bye`, "line\u2028sep\u2029para", "ctl\t\x01", "ünï ✓", ""}
	errItem := func() json.RawMessage {
		msg := msgs[rng.Intn(len(msgs))]
		if rng.Intn(2) == 0 {
			env, err := json.Marshal(batchItemError{Error: msg})
			if err != nil {
				t.Fatal(err)
			}
			return env
		}
		return json.RawMessage("{\"error\":\"raw <&> \u2028\"}")
	}
	cases := []BatchResult{
		{Meta: experiments.Meta{Kind: kindAnalyzeBatch, Schema: experiments.SchemaVersion}},
		{Meta: experiments.Meta{Kind: kindAnalyzeBatch, Schema: experiments.SchemaVersion}, Items: []json.RawMessage{}},
	}
	for trial := 0; trial < 60; trial++ {
		items := make([]json.RawMessage, rng.Intn(40))
		for i := range items {
			if rng.Intn(4) == 0 {
				items[i] = errItem()
			} else {
				items[i] = real[rng.Intn(len(real))]
			}
		}
		meta := experiments.Meta{Kind: kindAnalyzeBatch, Schema: experiments.SchemaVersion, Seed: rng.Int63() - rng.Int63(), Items: len(items)}
		if trial%6 == 0 {
			meta.Kind = msgs[rng.Intn(len(msgs))]
		}
		cases = append(cases, BatchResult{Meta: meta, Items: items})
	}
	for i, r := range cases {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON(nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: AppendJSON wrote\n%q\nencoding/json writes\n%q", i, got, want.Bytes())
		}
		if got := r.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want.Bytes()...)) {
			t.Fatalf("case %d: AppendJSON does not append to dst: %q", i, got)
		}
		var got bytes.Buffer
		if err := experiments.EncodeJSON(&got, r); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("case %d: EncodeJSON wrote %q, %v", i, got.Bytes(), err)
		}
	}
}

// TestSplitItems pins what the envelope reader accepts: the top-level
// items array of a valid envelope, found by parsing the top level, not
// by searching for the key. The strict split, the request's, refuses
// every other top-level key as well.
func TestSplitItems(t *testing.T) {
	cases := []struct {
		body   string
		want   []string // nil: refused
		others bool     // other top-level keys: the strict split refuses it
	}{
		{`{"meta":{"items":[9]},"items":[{"a":"]"},"x",1.5e-3,true,null,[]]}`, []string{`{"a":"]"}`, `"x"`, `1.5e-3`, `true`, `null`, `[]`}, true},
		{" {\n \"items\" : [ 1 ,\t\"a\\\"]\" ] , \"z\" : {} } ", []string{`1`, `"a\"]"`}, true},
		{`{"items":[]}`, []string{}, false},
		{" {\"items\" : [ {\"a\":1} ] }\n", []string{`{"a":1}`}, false},
		{`{"ITEMS":[1]}`, []string{`1`}, false}, // encoding/json matches keys case-insensitively
		{`{"items":[1],"items":[2]}`, nil, false},
		{`{"items":[1],"Items":[2]}`, nil, false},
		{`{"item\u0073":[1]}`, nil, false}, // an escaped key is refused outright
		{`{"items":null}`, nil, false},
		{`{"items":{}}`, nil, false},
		{`{"meta":{}}`, nil, true},
		{`[{"items":[1]}]`, nil, false},
		{`{"items":[1,]}`, nil, false},
		{`{"items":[1]`, nil, false},
		{`{"items":[1]} x`, nil, false},
		{``, nil, false},
	}
	for _, tc := range cases {
		for _, strict := range []bool{false, true} {
			want := tc.want
			if strict && tc.others {
				want = nil
			}
			items, ok := SplitItems([]byte(tc.body), strict)
			if ok != (want != nil) {
				t.Fatalf("SplitItems(%q, %v) ok=%v, want %v", tc.body, strict, ok, want != nil)
			}
			if len(items) != len(want) {
				t.Fatalf("SplitItems(%q, %v) = %q, want %q", tc.body, strict, items, want)
			}
			for i := range items {
				if string(items[i]) != want[i] {
					t.Fatalf("SplitItems(%q, %v) item %d = %s, want %s", tc.body, strict, i, items[i], want[i])
				}
			}
		}
	}
}

// splitSeeds are bodies the envelope reader must parse around or
// refuse.
var splitSeeds = []string{
	` { "items" : [ 1 , "a\"]" , {"items":[2]} , [ ] , null ] } `,
	`{"ITEMS":[1]}`, `{"items":[1],"items":[2]}`, `{"item\u0073":[1]}`,
	`{"items":null}`, `{"meta":{"items":[9]},"items":[true,-1.5e3]}`, `[1]`, `{"items":[1,`,
}

// FuzzSplitItems checks the merge's reader against encoding/json:
// wherever SplitItems accepts a body, json.Unmarshal into
// struct{ Items []json.RawMessage } succeeds and yields the same item
// bytes. The seeds are real replica envelopes, each with an in-band item
// error, plus shapes the reader must parse around or refuse.
func FuzzSplitItems(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "analyze_batch.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	envelope, _, err := New(Config{Workers: 1}).AnalyzeBatch(context.Background(),
		[]byte(`{"items":[{"tasks":[{"name":"<a&b>","bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]}]}`), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelope)
	for _, body := range splitSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, ok := SplitItems(body, false)
		if !ok {
			return
		}
		var env struct{ Items []json.RawMessage }
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("SplitItems accepted %q, which json.Unmarshal refuses: %v", body, err)
		}
		equalItems(t, body, items, env.Items)
	})
}

// FuzzSplitBatchRequest checks the request's strict split against the
// replicas' strict decode: wherever SplitItems(body, true) accepts a
// body, a json.Decoder with DisallowUnknownFields decodes it into
// struct{ Items []json.RawMessage }, with nothing after the value, and
// yields the same item bytes. The split may refuse more, never less:
// a refused body goes to a replica whole.
func FuzzSplitBatchRequest(f *testing.F) {
	f.Add([]byte(goldenBatchBody))
	f.Add([]byte(batchKind.example))
	for _, body := range splitSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, ok := SplitItems(body, true)
		if !ok {
			return
		}
		var env struct{ Items []json.RawMessage }
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("the strict split accepted %q, which the strict decode refuses: %v", body, err)
		}
		if dec.More() {
			t.Fatalf("the strict split accepted %q, which has data after its value", body)
		}
		equalItems(t, body, items, env.Items)
	})
}

func equalItems(t *testing.T, body []byte, got, want []json.RawMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("SplitItems found %d items in %q, encoding/json %d", len(got), body, len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("item %d of %q: SplitItems %q, encoding/json %q", i, body, got[i], want[i])
		}
	}
}
