package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/codesign"
	"ctrlsched/internal/experiments"
)

// codesignBody is the paper scenario at a short validation horizon: two
// existing loops plus a new DC servo over a grid whose shortest
// schedulable candidate (8 ms) sits in the stability-anomaly hole.
const codesignBody = `{
	"base_tasks": [
		{"name":"pendulum","plant":"inverted-pendulum","bcet":0.00168,"wcet":0.0024,"period":0.008},
		{"name":"fast-servo","plant":"fast-servo","bcet":0.0021,"wcet":0.0030,"period":0.010}
	],
	"loops": [
		{"name":"new-servo","plant":"dc-servo","bcet":0.00105,"wcet":0.0015,
		 "periods":[0.005,0.006,0.008,0.009,0.010,0.012,0.016]}
	],
	"horizon": 0.5,
	"seed": 42
}`

func mustCodesign(t *testing.T, s *Service, body string) ([]byte, bool) {
	t.Helper()
	b, hit, err := s.Codesign(context.Background(), []byte(body), nil)
	if err != nil {
		t.Fatalf("Codesign: %v", err)
	}
	return b, hit
}

func TestCodesignDeterminismAndCache(t *testing.T) {
	s := newTestService()
	first, hit := mustCodesign(t, s, codesignBody)
	if hit {
		t.Fatal("fresh codesign reported a cache hit")
	}
	second, hit := mustCodesign(t, s, codesignBody)
	if !hit {
		t.Fatal("identical codesign missed the cache")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit returned different bytes")
	}
	// Worker-count invariance on fresh services.
	w1, _ := mustCodesign(t, New(Config{Workers: 1}), codesignBody)
	w8, _ := mustCodesign(t, New(Config{Workers: 8}), codesignBody)
	if !bytes.Equal(w1, w8) || !bytes.Equal(first, w1) {
		t.Fatal("codesign bytes differ across worker counts")
	}
	// Canonically-equal spelling (defaults explicit, grid permuted and
	// duplicated) hits the same entry.
	respelled := strings.Replace(codesignBody,
		`"periods":[0.005,0.006,0.008,0.009,0.010,0.012,0.016]`,
		`"periods":[0.016,0.006,0.005,0.008,0.009,0.010,0.012,0.012]`, 1)
	respelled = strings.Replace(respelled, `"horizon": 0.5`, `"horizon": 0.5, "method":"backtracking", "max_iters":4`, 1)
	b, hit := mustCodesign(t, s, respelled)
	if !hit || !bytes.Equal(b, first) {
		t.Fatalf("canonically-equal codesign request missed the cache (hit=%v)", hit)
	}
}

// TestCodesignPunchline pins the acceptance claim end to end through
// the service: the selected period is schedulable but not the shortest
// schedulable candidate, and the winner passed the co-sim check.
func TestCodesignPunchline(t *testing.T) {
	b, _ := mustCodesign(t, newTestService(), codesignBody)
	var res CodesignResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.CosimStable {
		t.Fatalf("feasible=%v cosim_stable=%v", res.Feasible, res.CosimStable)
	}
	selected := res.Periods[0]
	shortestSched := math.Inf(1)
	for _, c := range res.Candidates {
		if c.Schedulable && c.Period < shortestSched {
			shortestSched = c.Period
		}
	}
	if shortestSched != 0.008 {
		t.Fatalf("shortest schedulable candidate = %v, want 0.008", shortestSched)
	}
	if selected <= shortestSched {
		t.Fatalf("selected %v not longer than shortest schedulable %v", selected, shortestSched)
	}
	if got := len(res.Tasks); got != 3 {
		t.Fatalf("winner has %d tasks, want 3", got)
	}
	// The render path mentions the punchline.
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "NOT the shortest schedulable") {
		t.Fatalf("render misses the punchline note:\n%s", buf.String())
	}
	var csv bytes.Buffer
	res.WriteCSV(&csv)
	if !strings.Contains(csv.String(), "schedulable") {
		t.Fatal("CSV missing candidate header")
	}
}

func TestCodesignErrors(t *testing.T) {
	s := newTestService()
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty loops", `{"loops":[]}`, http.StatusBadRequest},
		{"no loops key", `{}`, http.StatusBadRequest},
		{"empty grid", `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[]}]}`, http.StatusBadRequest},
		{"unknown plant", `{"loops":[{"plant":"nope","bcet":0.001,"wcet":0.002,"periods":[0.01]}]}`, http.StatusBadRequest},
		{"bad exec bounds", `{"loops":[{"plant":"dc-servo","bcet":0.003,"wcet":0.002,"periods":[0.01]}]}`, http.StatusBadRequest},
		{"bad period", `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[-0.01]}]}`, http.StatusBadRequest},
		{"bad method", `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[0.01]}],"method":"nope"}`, http.StatusBadRequest},
		{"bad horizon", `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[0.01]}],"horizon":99}`, http.StatusBadRequest},
		{"bad iters", `{"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[0.01]}],"max_iters":99}`, http.StatusBadRequest},
		{"unknown field", `{"loopz":[]}`, http.StatusBadRequest},
		{"bad base task", `{"base_tasks":[{"bcet":0,"wcet":1,"period":1}],"loops":[{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[0.01]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, _, err := s.Codesign(context.Background(), []byte(tc.body), nil)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if got := HTTPStatus(err); got != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, got, tc.status, err)
		}
	}
}

// TestCodesignInfeasibleGridIsAnAnswer distinguishes a 400 (malformed
// request) from a well-formed request whose answer is "infeasible".
func TestCodesignInfeasibleGridIsAnAnswer(t *testing.T) {
	body := strings.Replace(codesignBody,
		`"periods":[0.005,0.006,0.008,0.009,0.010,0.012,0.016]`,
		`"periods":[0.005,0.006]`, 1)
	b, _ := mustCodesign(t, newTestService(), body)
	var res CodesignResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("unstable-only grid reported feasible")
	}
	if math.IsInf(float64(res.TotalCost), 1) == false {
		t.Fatalf("infeasible total_cost = %v, want inf", res.TotalCost)
	}
	if !json.Valid(b) {
		t.Fatal("infeasible response is not valid JSON")
	}
	if !bytes.Contains(b, []byte(`"total_cost":"inf"`)) {
		t.Fatalf("infinite total cost not spelled 'inf': %s", b)
	}
}

func TestCodesignHTTPRoundTrip(t *testing.T) {
	srv := httptest.NewServer(newTestService().Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/codesign", "application/json", strings.NewReader(codesignBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	// GET is rejected.
	getResp, err := http.Get(srv.URL + "/v1/codesign")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", getResp.StatusCode)
	}

	// Streamed: per-candidate progress lines, then cache + result.
	resp2, err := http.Post(srv.URL+"/v1/codesign?stream=1", "application/json", strings.NewReader(codesignBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var progressLines int
	var sawCache, sawResult bool
	var resultLine []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"progress"`)):
			progressLines++
		case bytes.HasPrefix(line, []byte(`{"type":"cache","status":"hit"}`)):
			sawCache = true
		case bytes.HasPrefix(line, []byte(`{"type":"result"`)):
			sawResult = true
			resultLine = append([]byte(nil), line...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The plain request above already cached the result, so the stream
	// is a hit with no progress lines.
	if progressLines != 0 || !sawCache || !sawResult {
		t.Fatalf("cached stream: progress=%d cache=%v result=%v", progressLines, sawCache, sawResult)
	}
	var envelope struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(resultLine, &envelope); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(body, "\n"), bytes.TrimRight(envelope.Result, "\n")) {
		t.Fatal("streamed result differs from the plain response")
	}
}

// TestCodesignStreamProgressLines checks that a fresh (uncached)
// streamed codesign emits one progress line per candidate evaluation,
// unthrottled, ending at done == total.
func TestCodesignStreamProgressLines(t *testing.T) {
	srv := httptest.NewServer(newTestService().Handler())
	defer srv.Close()
	body := strings.Replace(codesignBody, `"seed": 42`, `"seed": 43`, 1)
	resp, err := http.Post(srv.URL+"/v1/codesign?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type prog struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	var last prog
	lines := 0
	sawResult := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"type":"progress"`)) {
			var p prog
			if err := json.Unmarshal(line, &p); err != nil {
				t.Fatal(err)
			}
			if p.Done < last.Done {
				t.Fatalf("progress regressed: %d after %d", p.Done, last.Done)
			}
			last = p
			lines++
		}
		if bytes.HasPrefix(line, []byte(`{"type":"result"`)) {
			sawResult = true
		}
	}
	if !sawResult {
		t.Fatal("no result line")
	}
	// 7 margin evaluations alone exceed the ~1%-throttled line count an
	// experiment stream would allow; unthrottled codesign must emit one
	// line per evaluation.
	if lines < 10 {
		t.Fatalf("only %d progress lines; expected per-candidate granularity", lines)
	}
	if last.Done != last.Total {
		t.Fatalf("final progress %d/%d", last.Done, last.Total)
	}
}

func TestCodesignCancellationLeavesNoPartials(t *testing.T) {
	s := newTestService()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	go func() {
		_, _, err := s.Codesign(ctx, []byte(codesignBody), func(done, total int) {
			once.Do(func() { close(started) })
		})
		if err == nil {
			// The run may complete before cancel lands; that is fine —
			// the test below still verifies cache state consistency.
			return
		}
	}()
	<-started
	cancel()
	// However the race resolved, a subsequent identical request must
	// return the full, correct bytes (either computed fresh because the
	// abort discarded partials, or the completed cached result).
	b, _, err := s.Codesign(context.Background(), []byte(codesignBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	var res CodesignResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("post-cancel rerun returned a broken result")
	}
	ref, _ := mustCodesign(t, New(Config{Workers: 2}), codesignBody)
	if !bytes.Equal(b, ref) {
		t.Fatal("post-cancel bytes differ from a fresh service's")
	}
}

// TestCodesignHammerRace mixes concurrent codesign, analyze, and batch
// traffic — the -race job's coverage of the new endpoint.
func TestCodesignHammerRace(t *testing.T) {
	s := New(Config{Workers: 2, MaxConcurrent: 2, CacheEntries: 16})
	small := strings.Replace(codesignBody, `"horizon": 0.5`, `"horizon": 0.2`, 1)
	ref, _ := mustCodesign(t, New(Config{Workers: 2}), small)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				b, _, err := s.Codesign(context.Background(), []byte(small), nil)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(b, ref) {
					errs <- fmt.Errorf("goroutine %d: codesign bytes diverged", g)
					return
				}
				if _, _, err := s.Analyze(context.Background(),
					[]byte(`{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]}`)); err != nil {
					errs <- err
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

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestGoldenCodesign byte-compares the paper scenario's codesign
// response against the committed fixture, extending the golden gate to
// the synthesis engine (rta, jitter, lqg, delayed-cost, assign, cosim).
// Regenerate intentionally with
//
//	go test ./internal/service -run TestGolden -update
func TestGoldenCodesign(t *testing.T) {
	got, _ := mustCodesign(t, New(Config{Workers: 2}), codesignBody)
	path := filepath.Join("testdata", "golden", "codesign.json")
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
		t.Fatalf("codesign response deviates from %s.\nIf the change is intentional, regenerate with `go test ./internal/service -run TestGolden -update` and commit the diff.\ngot:\n%s", path, got)
	}
}

var _ experiments.Result = CodesignResult{}

// TestCodesignHTTPErrorClassifier pins the error taxonomy shared by
// every compute route (classifyError): aborts are 503 (service shed
// load), engine-internal failures are 500, and anything else —
// input-shaped by construction — is 400. The old code collapsed
// everything but aborts into 400, blaming callers for engine bugs.
func TestCodesignHTTPErrorClassifier(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
	}{
		{"abort", fmt.Errorf("run: %w", campaign.ErrAborted), http.StatusServiceUnavailable},
		{"internal", fmt.Errorf("codesign: validation co-simulation: %w", codesign.ErrInternal), http.StatusInternalServerError},
		{"input-shaped", errors.New("codesign: loop 0: empty candidate period grid"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := HTTPStatus(classifyError(kindCodesign, tc.err)); got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
	}
}

// TestCodesignEngineInputErrorIs400 drives an input-shaped ENGINE error
// (as opposed to one caught by request validation) end to end: the
// request is well-formed at the HTTP layer, but the base task's plant
// admits no stabilizing design at its period, which the engine reports.
// That must surface as a 400, not a 500.
func TestCodesignEngineInputErrorIs400(t *testing.T) {
	s := newTestService()
	body := `{
		"base_tasks": [{"name":"p","plant":"inverted-pendulum","bcet":0.001,"wcet":0.002,"period":5}],
		"loops": [{"plant":"dc-servo","bcet":0.001,"wcet":0.002,"periods":[0.01]}],
		"horizon": 0.1
	}`
	_, _, err := s.Codesign(context.Background(), []byte(body), nil)
	if err == nil {
		t.Fatal("pendulum at a 5 s period produced a design")
	}
	if got := HTTPStatus(err); got != http.StatusBadRequest {
		t.Fatalf("engine input error surfaced as %d, want 400 (%v)", got, err)
	}
	if !strings.Contains(err.Error(), "no design") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

// TestCodesignConvergenceTraceShape checks the exposed trace: one entry
// per reported iteration, cumulative evaluations ending at the result's
// total, and a final incumbent equal to the total cost.
func TestCodesignConvergenceTraceShape(t *testing.T) {
	b, _ := mustCodesign(t, newTestService(), codesignBody)
	var res CodesignResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.ConvergenceTrace) == 0 {
		t.Fatal("response has no convergence_trace")
	}
	if len(res.ConvergenceTrace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.ConvergenceTrace), res.Iterations)
	}
	last := res.ConvergenceTrace[len(res.ConvergenceTrace)-1]
	if last.Evaluations != res.Evaluations {
		t.Fatalf("final trace evaluations %d != %d", last.Evaluations, res.Evaluations)
	}
	if res.Feasible && float64(last.Objective) != float64(res.TotalCost) {
		t.Fatalf("final incumbent %v != total cost %v", last.Objective, res.TotalCost)
	}
	for i, sw := range res.ConvergenceTrace {
		if sw.Sweep != i+1 {
			t.Fatalf("trace[%d].sweep = %d", i, sw.Sweep)
		}
	}
}
