package gateway

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestJobLookupIncomplete pins the broadcast fix: a job lookup can only
// answer 404 when every replica answered — with one replica down the
// gateway must answer 503 + Retry-After, because the job may live on
// the unreachable replica.
func TestJobLookupIncomplete(t *testing.T) {
	f := newFleet(t, 2, nil)

	// All replicas up: an unknown ID is a canonical 404.
	resp, body := doGet(t, f.gw.URL+"/v1/jobs/no-such-job")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("all-up lookup status = %d, want 404: %s", resp.StatusCode, body)
	}

	// One replica down: the same lookup is now unanswerable.
	f.reps[0].Close()
	f.g.CheckReplicas(context.Background())
	resp, body = doGet(t, f.gw.URL+"/v1/jobs/no-such-job")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded lookup status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded lookup must carry Retry-After")
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "unavailable" {
		t.Fatalf("degraded lookup body %s, want code unavailable", body)
	}
	if !strings.Contains(env.Error.Message, "incomplete") {
		t.Fatalf("message %q should say the lookup was incomplete", env.Error.Message)
	}
}

// TestJobLookupBroadcastFindsJob: a job submitted directly to one
// replica (bypassing affinity) is found through the gateway broadcast.
func TestJobLookupBroadcastFindsJob(t *testing.T) {
	f := newFleet(t, 2, nil)
	submit := `{"kind":"analyze","request":{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}}`
	var id string
	// Submit to the second replica directly so the gateway has to find
	// it rather than route to it.
	resp, body := doPost(t, f.reps[1].URL+"/v1/jobs", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("direct submit status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit doc %s", body)
	}
	id = st.ID
	resp, body = doGet(t, f.gw.URL+"/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("broadcast lookup status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), id) {
		t.Fatalf("lookup body %s does not carry the job id", body)
	}
}

func doGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestRouteDeadline504: a stalled replica turns into a fast 504 with
// code "deadline" when the route class has a deadline configured, for
// a single analyze and for a batch split across two stalled replicas.
func TestRouteDeadline504(t *testing.T) {
	slow0, _ := slowReplica(t)
	slow1, _ := slowReplica(t)
	g, err := New(Options{Replicas: []string{slow0.URL, slow1.URL}, DeadlineAnalyze: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	format := `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":%d}]}`
	batch := `{"items":[` + ownedItem(t, g, g.reps[0], format) + "," + ownedItem(t, g, g.reps[1], format) + `]}`
	requireSplit(t, g, batch)
	for _, tc := range []struct{ path, body string }{
		{"/v1/analyze", `{"plant":"dc-servo","period":0.006}`},
		{"/v1/analyze/batch", batch},
	} {
		start := time.Now()
		resp, body := doPost(t, gw.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status = %d, want 504: %s", tc.path, resp.StatusCode, body)
		}
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "deadline" {
			t.Fatalf("%s: body %s, want code deadline", tc.path, body)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s: deadline answer took %s — the stall leaked through", tc.path, elapsed)
		}
	}

	// The deadline is the client's verdict, not the replicas': every
	// replica must still be in rotation with its breaker closed.
	var doc struct {
		Replicas []replicaStatus `json:"replicas"`
	}
	_, hb := doGet(t, gw.URL+"/healthz")
	if err := json.Unmarshal(hb, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Replicas) != 2 {
		t.Fatalf("healthz lists %d replicas, want 2", len(doc.Replicas))
	}
	for _, rep := range doc.Replicas {
		if !rep.Ready || rep.Breaker != BreakerClosed {
			t.Fatalf("replica status after deadline = %+v, want ready with a closed breaker", doc.Replicas)
		}
	}
}

// brokenReplica answers /readyz 200 but kills the connection on /v1/
// paths — a replica that is "up" yet cannot serve, which is what forces
// the proxy's re-pick path and spends retry budget.
func brokenReplica(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Write([]byte("ok")) // readyz
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRetryBudgetExhausted: with retries disabled (negative tokens) a
// transport failure that would re-pick instead answers 503 with code
// retry_budget.
func TestRetryBudgetExhausted(t *testing.T) {
	b1, b2 := brokenReplica(t), brokenReplica(t)
	g, err := New(Options{Replicas: []string{b1.URL, b2.URL}, RetryTokens: -1})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	resp, body := doPost(t, gw.URL+"/v1/analyze", `{"plant":"dc-servo","period":0.006}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "retry_budget" {
		t.Fatalf("body %s, want code retry_budget", body)
	}
	var doc struct {
		Budget budgetStats `json:"retry_budget"`
	}
	_, hb := doGet(t, gw.URL+"/healthz")
	if err := json.Unmarshal(hb, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Budget.Denied == 0 {
		t.Fatalf("healthz retry_budget = %+v, want a denial recorded", doc.Budget)
	}
}

// TestRetryFailsOver: with budget available, a broken replica's
// transport failure re-picks onto the healthy one and the request
// still succeeds.
func TestRetryFailsOver(t *testing.T) {
	broken := brokenReplica(t)
	f := newFleet(t, 1, func(o *Options) {
		o.Replicas = append(o.Replicas, broken.URL)
		o.NoAffinity = true // round-robin so both replicas get picked
	})
	for i := 0; i < 4; i++ {
		resp, body := doPost(t, f.gw.URL+"/v1/analyze", `{"plant":"dc-servo","period":0.006}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d, want 200 via failover: %s", i, resp.StatusCode, body)
		}
	}
}

// TestBreakerEjectionSticky: once a replica's circuit opens, recovery
// is gated on the cooldown — an immediately-healthy replica stays out
// of rotation until the half-open probe window, then rejoins.
func TestBreakerEjectionSticky(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	var healthy atomic.Bool
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer rep.Close()

	g, err := New(Options{
		Replicas:         []string{rep.URL},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		now:              clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	healthy.Store(false)
	g.CheckReplicas(ctx)
	if st, _, _ := g.reps[0].brk.State(); st != BreakerOpen {
		t.Fatalf("breaker = %s after failed probe, want open", st)
	}

	// The replica heals instantly, but the open circuit suppresses the
	// probe: it must stay out of rotation.
	healthy.Store(true)
	g.CheckReplicas(ctx)
	if g.reps[0].up.Load() {
		t.Fatal("replica rejoined inside the cooldown — ejection is not sticky")
	}

	// Past the cooldown the half-open probe runs, succeeds, and closes
	// the circuit.
	clk.advance(2 * time.Hour)
	g.CheckReplicas(ctx)
	if !g.reps[0].up.Load() {
		t.Fatal("replica did not rejoin after a successful half-open probe")
	}
	if st, _, _ := g.reps[0].brk.State(); st != BreakerClosed {
		t.Fatalf("breaker = %s after successful probe, want closed", st)
	}
}

// TestStreamExemptFromDeadline: ?stream=1 requests are open-ended by
// contract and must not inherit a route deadline.
func TestStreamExemptFromDeadline(t *testing.T) {
	f := newFleet(t, 1, func(o *Options) {
		o.DeadlineJobs = 50 * time.Millisecond
	})
	// A codesign job that runs well past the jobs deadline.
	submit := `{"kind":"codesign","request":{"loops":[{"plant":"dc-servo","bcet":0.00105,"wcet":0.0015,"periods":[0.006,0.008,0.012]}],"seed":7}}`
	resp, body := doPost(t, f.gw.URL+"/v1/jobs", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// Stream the job to terminal: with the deadline wrongly applied the
	// stream would be cut at 50ms with a 504 or a torn body.
	resp2, err := http.Get(f.gw.URL + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp2.StatusCode)
	}
	b, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatalf("stream cut: %v", err)
	}
	if !strings.Contains(string(b), `"type":"result"`) {
		t.Fatalf("stream ended without a result event:\n%s", b)
	}
}
