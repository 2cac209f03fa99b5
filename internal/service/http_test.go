package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"ctrlsched/internal/experiments"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHTTPExperimentRoundTrip(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	url := srv.URL + "/v1/experiments/table1"

	resp, first := post(t, url, smallTable1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q on first request", got)
	}
	var res experiments.Table1Result
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("response is not a Table1Result: %v\n%s", err, first)
	}
	if res.Meta.Kind != experiments.KindTable1 || len(res.Rows) != 1 || res.Rows[0].N != 4 {
		t.Fatalf("unexpected result: %s", first)
	}

	resp, second := post(t, url, smallTable1)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q on repeat request", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeat request returned different bytes")
	}
}

func TestHTTPWorkerInvariance(t *testing.T) {
	one := newTestServer(t, Config{Workers: 1})
	eight := newTestServer(t, Config{Workers: 8})
	_, a := post(t, one.URL+"/v1/experiments/table1", smallTable1)
	_, b := post(t, eight.URL+"/v1/experiments/table1", smallTable1)
	if !bytes.Equal(a, b) {
		t.Fatalf("daemon responses differ across worker counts:\n%s\n%s", a, b)
	}
}

// decodeErrEnvelope decodes the shared error envelope
// {"error":{"code":"...","message":"..."}} every endpoint emits.
func decodeErrEnvelope(t *testing.T, body []byte) (code, message string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error envelope malformed: %v: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %s", body)
	}
	return env.Error.Code, env.Error.Message
}

func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"unknown kind", "POST", "/v1/experiments/table9", "{}", http.StatusNotFound},
		{"empty kind", "POST", "/v1/experiments/", "{}", http.StatusNotFound},
		{"nested path", "POST", "/v1/experiments/table1/extra", "{}", http.StatusNotFound},
		{"GET experiment", "GET", "/v1/experiments/table1", "", http.StatusMethodNotAllowed},
		{"malformed config", "POST", "/v1/experiments/table1", `{"benchmarks":"many"}`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/experiments/table1", `{"benchmark":1}`, http.StatusBadRequest},
		{"malformed analyze", "POST", "/v1/analyze", `{"tasks":[`, http.StatusBadRequest},
		{"oversized body", "POST", "/v1/analyze", `{"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"empty analyze", "POST", "/v1/analyze", `{}`, http.StatusBadRequest},
		{"GET analyze", "GET", "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"POST healthz", "POST", "/healthz", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		decodeErrEnvelope(t, body)
	}
}

func TestHTTPAnalyze(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	resp, body := post(t, srv.URL+"/v1/analyze",
		`{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res AnalyzeResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Schedulable {
		t.Fatalf("single light task not schedulable: %s", body)
	}
}

func TestHTTPHealthz(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	post(t, srv.URL+"/v1/experiments/table1", smallTable1)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status string   `json:"status"`
		Kinds  []string `json:"kinds"`
		Stats  Stats    `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Kinds) != 6 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Stats.Requests < 1 || h.Stats.CacheEntries < 1 {
		t.Fatalf("healthz stats empty: %+v", h.Stats)
	}
}

// readStream posts one streamed experiment request and decodes the
// chunked JSON lines, failing the test on an error line.
func readStream(t *testing.T, url, body string) (progressLines int, cache string, result json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Type   string          `json:"type"`
			Done   int             `json:"done"`
			Total  int             `json:"total"`
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
			Error  *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "error":
			t.Fatalf("stream error: %+v", line.Error)
		case "progress":
			progressLines++
			if line.Total != 50 {
				t.Fatalf("progress total = %d", line.Total)
			}
		case "cache":
			cache = line.Status
		case "result":
			result = line.Result
		default:
			t.Fatalf("unknown stream line type %q: %s", line.Type, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return progressLines, cache, result
}

func TestHTTPStreamedProgress(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	url := srv.URL + "/v1/experiments/table1?stream=1"
	progressLines, cache, result := readStream(t, url, smallTable1)
	if progressLines == 0 {
		t.Fatal("no progress lines streamed")
	}
	if cache != "miss" {
		t.Fatalf("first streamed request reported cache %q", cache)
	}
	if result == nil {
		t.Fatal("no result line streamed")
	}
	// The streamed result must be the same canonical bytes the plain
	// endpoint returns.
	_, plain := post(t, srv.URL+"/v1/experiments/table1", smallTable1)
	if !bytes.Equal(bytes.TrimSpace(plain), bytes.TrimSpace(result)) {
		t.Fatalf("streamed result differs from plain response")
	}
	// A repeat streamed request is answered from the cache: no campaign,
	// no progress, same bytes, and the in-band cache status says so.
	progressLines, cache, cached := readStream(t, url, smallTable1)
	if progressLines != 0 {
		t.Fatalf("cache hit streamed %d progress lines", progressLines)
	}
	if cache != "hit" {
		t.Fatalf("repeat streamed request reported cache %q", cache)
	}
	if !bytes.Equal(result, cached) {
		t.Fatal("repeat streamed request returned different bytes")
	}
}

// TestHTTPHealthzMethodNotAllowed pins the 405 (envelope + Allow
// header) on non-GET health requests.
func TestHTTPHealthzMethodNotAllowed(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/healthz", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /healthz: status %d body %s", method, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Allow"); got != http.MethodGet {
			t.Fatalf("%s /healthz: Allow %q, want GET", method, got)
		}
		if code, _ := decodeErrEnvelope(t, body); code != "method_not_allowed" {
			t.Fatalf("%s /healthz: code %q", method, code)
		}
	}
}

// TestHTTPEmptyBatch400BothPaths pins the empty-batch contract on the
// wire: {"items":[]} is a deterministic 400 on the buffered AND the
// ?stream=1 paths — never an empty-success body.
func TestHTTPEmptyBatch400BothPaths(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	for _, url := range []string{srv.URL + "/v1/analyze/batch", srv.URL + "/v1/analyze/batch?stream=1"} {
		for rep := 0; rep < 2; rep++ { // deterministic across repeats
			resp, err := http.Post(url, "application/json", strings.NewReader(`{"items":[]}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
			}
			if _, msg := decodeErrEnvelope(t, body); !strings.Contains(msg, "at least one item") {
				t.Fatalf("%s: error %q", url, msg)
			}
		}
	}
	// Same contract for a codesign request with an empty candidate grid.
	body := `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[]}]}`
	for _, url := range []string{srv.URL + "/v1/codesign", srv.URL + "/v1/codesign?stream=1"} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, rb)
		}
		if _, msg := decodeErrEnvelope(t, rb); !strings.Contains(msg, "empty candidate period grid") {
			t.Fatalf("%s: error %q", url, msg)
		}
	}
}

// plainRecorder wraps httptest.ResponseRecorder hiding its Flush method,
// modeling a connection that cannot stream.
type plainRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newPlainRecorder() *plainRecorder { return &plainRecorder{header: http.Header{}, code: 200} }

func (r *plainRecorder) Header() http.Header         { return r.header }
func (r *plainRecorder) WriteHeader(code int)        { r.code = code }
func (r *plainRecorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// TestStreamFallbackWithoutFlusher pins the degrade-to-buffered rule:
// ?stream=1 on a non-Flusher connection serves the plain response (with
// X-Cache) instead of erroring.
func TestStreamFallbackWithoutFlusher(t *testing.T) {
	s := newTestService()
	h := s.Handler()

	// Experiment path.
	req := httptest.NewRequest(http.MethodPost, "/v1/experiments/table1?stream=1", strings.NewReader(smallTable1))
	rec := newPlainRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		t.Fatalf("experiment fallback status %d: %s", rec.code, rec.body.String())
	}
	if got := rec.header.Get("X-Cache"); got != "miss" {
		t.Fatalf("experiment fallback X-Cache %q", got)
	}
	want, _ := mustExperiment(t, s, "table1", smallTable1)
	if !bytes.Equal(rec.body.Bytes(), want) {
		t.Fatal("experiment fallback bytes differ from the plain response")
	}

	// Batch path.
	req = httptest.NewRequest(http.MethodPost, "/v1/analyze/batch?stream=1", bytes.NewReader(batchBody(3)))
	rec = newPlainRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusOK || rec.header.Get("X-Cache") == "" {
		t.Fatalf("batch fallback status %d X-Cache %q", rec.code, rec.header.Get("X-Cache"))
	}
	var batch BatchResult
	if err := json.Unmarshal(rec.body.Bytes(), &batch); err != nil || len(batch.Items) != 3 {
		t.Fatalf("batch fallback body broken: err=%v items=%d", err, len(batch.Items))
	}

	// Errors still surface on the fallback path.
	req = httptest.NewRequest(http.MethodPost, "/v1/analyze/batch?stream=1", strings.NewReader(`{"items":[]}`))
	rec = newPlainRecorder()
	h.ServeHTTP(rec, req)
	if rec.code != http.StatusBadRequest {
		t.Fatalf("batch fallback error status %d", rec.code)
	}
}

// TestAnalyzeNonFiniteJSON is the regression test for the inf/nan audit:
// an unschedulable task set analyzed with the never-backtracking
// "unsafe" method produces +Inf response times and -Inf slack, and the
// response must encode them as the shared "inf"/"-inf" spellings instead
// of failing json.Marshal mid-response.
func TestAnalyzeNonFiniteJSON(t *testing.T) {
	s := newTestService()
	// Two full-utilization tasks: whichever ends up at the lower priority
	// has infinite WCRT; "unsafe" still returns a complete assignment.
	b, _, err := s.Analyze(context.Background(),
		[]byte(`{"tasks":[{"bcet":1,"wcet":1,"period":1},{"bcet":1,"wcet":1,"period":1}],"method":"unsafe"}`))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !json.Valid(b) {
		t.Fatalf("response is not valid JSON: %s", b)
	}
	if !bytes.Contains(b, []byte(`"wcrt":"inf"`)) || !bytes.Contains(b, []byte(`"slack":"-inf"`)) {
		t.Fatalf("non-finite fields not spelled inf/-inf: %s", b)
	}
	var res AnalyzeResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	sawInf := false
	for _, ta := range res.Tasks {
		if math.IsInf(float64(ta.WCRT), 1) {
			sawInf = true
			if !math.IsInf(float64(ta.Jitter), 1) || !math.IsInf(float64(ta.Slack), -1) {
				t.Fatalf("inconsistent non-finite task: %+v", ta)
			}
		}
	}
	if !sawInf {
		t.Fatalf("no infinite WCRT in an over-utilized set: %s", b)
	}
	// The same task set inside a batch keeps the envelope valid too.
	bb, _, err := s.AnalyzeBatch(context.Background(),
		[]byte(`{"items":[{"tasks":[{"bcet":1,"wcet":1,"period":1},{"bcet":1,"wcet":1,"period":1}],"method":"unsafe"}]}`), nil)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !json.Valid(bb) || !bytes.Contains(bb, []byte(`"wcrt":"inf"`)) {
		t.Fatalf("batch envelope broke on non-finite item: %s", bb)
	}
}

// TestReadSized reads one body with every kind of size hint: unknown,
// exact, short of the body, past it, and zero. Every read returns the
// whole body; an exact hint reads it into one allocation.
func TestReadSized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	for _, size := range []int64{-1, int64(len(body)), 100, int64(len(body)) + 500, 0} {
		got, err := ReadSized(iotest.HalfReader(bytes.NewReader(body)), size)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: read %d bytes, err %v; want the %d-byte body", size, len(got), err, len(body))
		}
	}
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		_, _ = ReadSized(rd, int64(len(body)))
	})
	if allocs != 1 {
		t.Fatalf("an exact size hint read the body in %v allocations, want 1", allocs)
	}
}

// TestReadBodyTrustsLengthOnlyToPresize hands readBody requests that
// announce the batch route's cap in Content-Length and end without a
// body byte, as a client does that sends only headers and hangs up.
// Each may cost maxPresize before its bytes arrive, never the announced
// length; a body that really is longer than maxPresize is read whole.
func TestReadBodyTrustsLengthOnlyToPresize(t *testing.T) {
	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze/batch", iotest.ErrReader(io.ErrUnexpectedEOF))
		r.ContentLength = MaxBatchBodyBytes
		if _, err := readBody(httptest.NewRecorder(), r, MaxBatchBodyBytes); err == nil {
			t.Fatal("a body that ended before its announced length was read without error")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > 2*maxPresize {
		t.Fatalf("a header-only request announcing %d bytes allocated %d bytes per read, want at most %d",
			MaxBatchBodyBytes, per, 2*maxPresize)
	}

	body := bytes.Repeat([]byte("0123456789"), 3*maxPresize/10)
	r := httptest.NewRequest(http.MethodPost, "/v1/analyze/batch", iotest.HalfReader(bytes.NewReader(body)))
	r.ContentLength = int64(len(body))
	if got, err := readBody(httptest.NewRecorder(), r, MaxBatchBodyBytes); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("read %d bytes, err %v; want the %d-byte body", len(got), err, len(body))
	}
}
