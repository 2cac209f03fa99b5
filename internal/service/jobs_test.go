package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctrlsched/internal/jobs"
	"ctrlsched/internal/kmemo"
)

const analyzeJobBody = `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}`

func waitJob(t *testing.T, j *jobs.Job) {
	t.Helper()
	select {
	case <-j.Finished():
	case <-time.After(30 * time.Second):
		t.Fatal("job never finished")
	}
}

// TestJobResultMatchesSync pins the core jobs contract: a submitted
// job's result bytes are byte-identical to the synchronous endpoint's
// response for the same canonical request.
func TestJobResultMatchesSync(t *testing.T) {
	s := newTestService()
	want, _, err := s.Analyze(context.Background(), []byte(analyzeJobBody))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.SubmitJob(kindAnalyze, []byte(analyzeJobBody))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	b, state, fail, ok := j.Result()
	if !ok || state != jobs.StateDone || fail != nil {
		t.Fatalf("Result = %v %v %v", state, fail, ok)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("job bytes differ from sync response:\n%s\n%s", b, want)
	}
}

// TestGoldenJobResult extends the golden pin to the async surface: the
// codesign job's stored bytes must equal both the synchronous response
// and the committed golden fixture.
func TestGoldenJobResult(t *testing.T) {
	s := New(Config{Workers: 2})
	sync, _ := mustCodesign(t, s, codesignBody)
	j, err := s.SubmitJob(kindCodesign, []byte(codesignBody))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	b, state, _, ok := j.Result()
	if !ok || state != jobs.StateDone {
		t.Fatalf("job state %v", state)
	}
	if !bytes.Equal(b, sync) {
		t.Fatal("job result bytes differ from the synchronous response")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "codesign.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("job result bytes deviate from the codesign golden fixture")
	}
}

// TestJobLifecycleHTTP drives the full HTTP surface: submit, status,
// stream, result.
func TestJobLifecycleHTTP(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit.
	submit := `{"kind":"analyze","request":` + analyzeJobBody + `}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != "analyze" || st.Key == "" {
		t.Fatalf("submit status doc %+v", st)
	}

	// Poll status to terminal.
	deadline := time.Now().Add(30 * time.Second)
	for st.State == jobs.StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job stuck running")
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != jobs.StateDone || st.FinishedAt == "" {
		t.Fatalf("terminal status %+v", st)
	}

	// Stream replays the typed events and terminates.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	var streamed json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		if ev.Type == jobs.EventResult {
			streamed = ev.Result
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != jobs.EventCache || types[1] != jobs.EventResult {
		t.Fatalf("stream events %v", types)
	}

	// Result equals the synchronous response.
	want, _, err := s.Analyze(context.Background(), []byte(analyzeJobBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("result status %d, bytes match %v", resp.StatusCode, bytes.Equal(got, want))
	}
	if !bytes.Equal(bytes.TrimRight(want, "\n"), streamed) {
		t.Fatal("streamed result differs from the result endpoint")
	}

	// Unknown id is a 404 envelope on all three verbs.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/ffffffffffffffff"},
		{http.MethodGet, "/v1/jobs/ffffffffffffffff/result"},
		{http.MethodDelete, "/v1/jobs/ffffffffffffffff"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d", probe.method, probe.path, resp.StatusCode)
		}
		if code, _ := decodeErrEnvelope(t, b); code != "not_found" {
			t.Fatalf("%s %s: code %q", probe.method, probe.path, code)
		}
	}
}

// TestJobCancelHTTP cancels a long-running experiment job over HTTP and
// checks the canceled state propagates to the result endpoint as a 409.
func TestJobCancelHTTP(t *testing.T) {
	srv := httptest.NewServer(newTestService().Handler())
	defer srv.Close()

	submit := `{"kind":"table1","request":{"benchmarks":20000,"sizes":[12,16,20],"seed":7}}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled job never terminated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The campaign may have finished before the abort landed; both
	// terminal states are legal, but a cancel that landed must replay as
	// a 409 with the canceled code.
	if st.State == jobs.StateCanceled {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("canceled result status %d: %s", resp.StatusCode, b)
		}
		if code, _ := decodeErrEnvelope(t, b); code != "canceled" {
			t.Fatalf("canceled result code %q", code)
		}
	}
}

// TestJobSubmitValidation pins admission-time failures: a malformed or
// unknown submission fails the POST, never creating a job.
func TestJobSubmitValidation(t *testing.T) {
	srv := httptest.NewServer(newTestService().Handler())
	defer srv.Close()
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed envelope", `{"kind":`, http.StatusBadRequest},
		{"missing kind", `{"request":{}}`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"fig9","request":{}}`, http.StatusBadRequest},
		{"unknown envelope field", `{"kind":"analyze","payload":{}}`, http.StatusBadRequest},
		{"invalid request", `{"kind":"analyze","request":{"tasks":[]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, b)
		}
		decodeErrEnvelope(t, b)
	}
	// Result of a still-pending job is a 409 with the pending code —
	// exercised via a slow job.
	s := newTestService()
	j, err := s.SubmitJob("table1", []byte(`{"benchmarks":20000,"sizes":[16,20],"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.handleJobResult(rec, j.ID)
	if rec.Code != http.StatusConflict {
		t.Fatalf("pending result status %d", rec.Code)
	}
	if code, _ := decodeErrEnvelope(t, rec.Body.Bytes()); code != "pending" {
		t.Fatalf("pending result code %q", code)
	}
	s.CancelJob(j.ID)
	waitJob(t, j)
}

// TestRouteConformance is the table-driven method/route contract: every
// endpoint answers wrong methods with 405 + Allow, unknown routes with
// 404, oversized bodies with 413, and malformed bodies with 400 — all
// in the shared error envelope.
func TestRouteConformance(t *testing.T) {
	srv := httptest.NewServer(newTestService().Handler())
	defer srv.Close()

	oversized := `{"pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
		allow                    string
	}{
		{"GET analyze", http.MethodGet, "/v1/analyze", "", 405, "method_not_allowed", "POST"},
		{"GET batch", http.MethodGet, "/v1/analyze/batch", "", 405, "method_not_allowed", "POST"},
		{"GET codesign", http.MethodGet, "/v1/codesign", "", 405, "method_not_allowed", "POST"},
		{"GET experiment", http.MethodGet, "/v1/experiments/table1", "", 405, "method_not_allowed", "POST"},
		{"POST healthz", http.MethodPost, "/healthz", "{}", 405, "method_not_allowed", "GET"},
		{"PUT jobs", http.MethodPut, "/v1/jobs", "{}", 405, "method_not_allowed", "POST"},
		{"POST job id", http.MethodPost, "/v1/jobs/deadbeef", "{}", 405, "method_not_allowed", "GET, DELETE"},
		{"POST job result", http.MethodPost, "/v1/jobs/deadbeef/result", "{}", 405, "method_not_allowed", "GET"},
		{"unknown route", http.MethodGet, "/nope", "", 404, "not_found", ""},
		{"unknown experiment", http.MethodPost, "/v1/experiments/table9", "{}", 404, "not_found", ""},
		{"nested job path", http.MethodGet, "/v1/jobs/deadbeef/result/extra", "", 404, "not_found", ""},
		{"empty job id", http.MethodGet, "/v1/jobs/", "", 404, "not_found", ""},
		{"oversized analyze", http.MethodPost, "/v1/analyze", oversized, 413, "payload_too_large", ""},
		{"malformed analyze", http.MethodPost, "/v1/analyze", `{"tasks":[`, 400, "bad_request", ""},
		{"malformed batch", http.MethodPost, "/v1/analyze/batch", `{"items":`, 400, "bad_request", ""},
		{"malformed codesign", http.MethodPost, "/v1/codesign", `{"loops":`, 400, "bad_request", ""},
		{"malformed experiment", http.MethodPost, "/v1/experiments/table1", `{`, 400, "bad_request", ""},
		{"malformed jobs", http.MethodPost, "/v1/jobs", `{`, 400, "bad_request", ""},
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
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, b)
			continue
		}
		if code, _ := decodeErrEnvelope(t, b); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow %q, want %q", tc.name, got, tc.allow)
		}
	}
}

// TestAbortIs503PerRoute generalizes PR 6's codesign-only rule: a
// campaign abort — client gone, queue shed, drain — surfaces as 503 on
// every compute route, never as a 400 blaming the request.
func TestAbortIs503PerRoute(t *testing.T) {
	s := newTestService()
	dead, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("analyze", func(t *testing.T) {
		_, _, err := s.Analyze(dead, []byte(analyzeJobBody))
		if HTTPStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%v)", HTTPStatus(err), err)
		}
	})
	t.Run("batch", func(t *testing.T) {
		_, _, err := s.AnalyzeBatch(dead, batchBody(2), nil)
		if HTTPStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%v)", HTTPStatus(err), err)
		}
	})
	t.Run("experiment-queued", func(t *testing.T) {
		_, _, err := s.Experiment(dead, "table1", []byte(smallTable1), nil)
		if HTTPStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%v)", HTTPStatus(err), err)
		}
	})
	t.Run("experiment-mid-campaign", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		progress := func(done, total int) { cancel() }
		_, _, err := s.Experiment(ctx, "table1", []byte(`{"benchmarks":20000,"sizes":[16,20],"seed":11}`), progress)
		if HTTPStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%v)", HTTPStatus(err), err)
		}
	})
	t.Run("codesign-queued", func(t *testing.T) {
		_, _, err := s.Codesign(dead, []byte(codesignBody), nil)
		if HTTPStatus(err) != http.StatusServiceUnavailable {
			t.Fatalf("status %d (%v)", HTTPStatus(err), err)
		}
	})
}

// TestJobRestartDurability: a codesign result computed before a
// restart is served after it byte-identical, from disk, without
// recompute. The kernel cache starts cold after the restart; only the
// durable store carries results across it.
func TestJobRestartDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, JobsDir: dir}

	s1 := New(cfg)
	want, _ := mustCodesign(t, s1, codesignBody)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Drain(ctx)

	// Simulate the process dying: the kernel cache goes cold.
	kmemo.Default().Reset()

	s2 := New(cfg)

	// A resubmitted codesign job is answered from the durable store:
	// byte-identical bytes, one store hit, no recompute.
	j, err := s2.SubmitJob(kindCodesign, []byte(codesignBody))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	// The engine counts a job before it lets anyone see the result.
	if st := s2.jobsEng.Stats(); st.Done != 1 {
		t.Fatalf("jobs stats %+v right after the job finished, want done 1", st)
	}
	b, state, _, ok := j.Result()
	if !ok || state != jobs.StateDone {
		t.Fatalf("restarted job state %v", state)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("restarted job bytes differ from the pre-restart response")
	}
	if hits := s2.store.Stats().Hits; hits != 1 {
		t.Fatalf("result_store.hits = %d after the job, want 1", hits)
	}

	// The synchronous path then hits the result the store read cached.
	got, hit, err := s2.Codesign(context.Background(), []byte(codesignBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || !bytes.Equal(got, want) {
		t.Fatalf("sync after restart: hit=%v match=%v", hit, bytes.Equal(got, want))
	}

	// /healthz reports the durable stats, the job counters, and that
	// nothing was recomputed.
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Stats       Stats            `json:"stats"`
		ResultStore jobs.StoreStats  `json:"result_store"`
		Jobs        jobs.EngineStats `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.ResultStore.Enabled || h.ResultStore.Entries < 1 || h.ResultStore.Hits != 1 {
		t.Fatalf("result_store stats %+v", h.ResultStore)
	}
	if h.Stats.CacheMisses != 0 {
		t.Fatalf("stats.cache_misses = %d: the restarted service recomputed", h.Stats.CacheMisses)
	}
	if h.Jobs.Submitted != 1 || h.Jobs.Done != 1 {
		t.Fatalf("jobs stats %+v", h.Jobs)
	}
}

// TestJobStreamFollowsLive subscribes to a running batch job's stream
// and checks the typed lines arrive with the batch terminator, matching
// the synchronous stream schema.
func TestJobStreamFollowsLive(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := `{"kind":"analyze_batch","request":` + string(batchBody(3)) + `}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: %v: %s", err, body)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	items := 0
	var terminator *jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case jobs.EventItem:
			items++
		case jobs.EventResult:
			e := ev
			terminator = &e
		case jobs.EventError:
			t.Fatalf("stream error: %+v", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if items != 3 || terminator == nil || terminator.Done != 3 {
		t.Fatalf("items=%d terminator=%+v", items, terminator)
	}
}
