package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"ctrlsched/internal/service"
)

// fleet is an in-process gateway over n real replicas.
type fleet struct {
	g      *Gateway
	gw     *httptest.Server
	reps   []*httptest.Server
	svcs   []*service.Service
	counts []*atomic.Int64 // proxied requests observed per replica
	t      *testing.T
}

func newFleet(t *testing.T, n int, mutate func(*Options)) *fleet {
	t.Helper()
	return newWrappedFleet(t, n, mutate, nil)
}

// newWrappedFleet is newFleet with replica i's handler replaced by
// wrap(i, handler) when wrap is non-nil. Replica i is named
// http://replica-i and dialed to its listener: the ring places its
// points by URL, so fixed names fix which replica owns which item, and
// every routing-dependent case replays the same on every run.
func newWrappedFleet(t *testing.T, n int, mutate func(*Options), wrap func(int, http.Handler) http.Handler) *fleet {
	t.Helper()
	f := &fleet{t: t}
	urls := make([]string, n)
	addrs := make(map[string]string, n) // replica-i:80 → listener address
	for i := 0; i < n; i++ {
		s := service.New(service.Config{Workers: 2, MaxConcurrent: 4, CacheEntries: 64})
		count := &atomic.Int64{}
		h := s.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				count.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		f.svcs = append(f.svcs, s)
		f.reps = append(f.reps, srv)
		f.counts = append(f.counts, count)
		urls[i] = fmt.Sprintf("http://replica-%d", i)
		addrs[fmt.Sprintf("replica-%d:80", i)] = srv.Listener.Addr().String()
	}
	var dialer net.Dialer
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if real, ok := addrs[addr]; ok {
			addr = real
		}
		return dialer.DialContext(ctx, network, addr)
	}}
	t.Cleanup(tr.CloseIdleConnections)
	opt := Options{Replicas: urls, HealthEvery: 50 * time.Millisecond, Client: &http.Client{Transport: tr}}
	if mutate != nil {
		mutate(&opt)
	}
	g, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	f.g = g
	f.gw = httptest.NewServer(g.Handler())
	t.Cleanup(f.gw.Close)
	return f
}

func doPost(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return doRequest(t, http.MethodPost, url, body)
}

func doRequest(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// multiPlantBatch touches every library plant plus plantless items, so
// a 2-replica ring is all but guaranteed to split it.
const multiPlantBatch = `{"items":[
	{"plant":"dc-servo","period":0.006},
	{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]},
	{"plant":"inverted-pendulum","period":0.008},
	{"plant":"fast-servo","period":0.01},
	{"tasks":[{"bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},
	{"plant":"double-integrator","period":0.02},
	{"plant":"stable-lag","period":0.05},
	{"tasks":[{"bcet":1,"wcet":1,"period":1},{"bcet":1,"wcet":1,"period":1}]}
]}`

// ownerOf returns the ring owner of one batch item.
func ownerOf(g *Gateway, item string) *replica {
	key, _ := service.RouteKey("analyze", []byte(item))
	return g.pickAffinity(key)
}

// ownedItem returns the first of format's variants 1, 2, ... whose ring
// owner is rep. format must name no plant, so that each variant routes
// by its own bytes.
func ownedItem(t *testing.T, g *Gateway, rep *replica, format string) string {
	t.Helper()
	for v := 1; v <= 1000; v++ {
		if item := fmt.Sprintf(format, v); ownerOf(g, item) == rep {
			return item
		}
	}
	t.Fatalf("no variant of %s belongs to %s", format, rep.url)
	return ""
}

// requireSplit fails the test unless body is a batch the gateway splits
// across both replicas.
func requireSplit(t *testing.T, g *Gateway, body string) {
	t.Helper()
	items, ok := service.SplitItems([]byte(body), true)
	if !ok || len(g.groupItems(items)) != 2 {
		t.Fatalf("batch does not split across both replicas: %s", body)
	}
}

// TestConformanceByteIdentity is the acceptance gate of the tentpole:
// for analyze, batch (split across replicas), codesign, and experiment
// requests, the gateway's response must be byte-identical to a direct
// single-replica response — body AND status. The gateway keeps its own
// copy of the replica's body caps, so each route also gets a body one
// byte over the replica's cap and a wrong method, whose status, Allow
// header and body must match too.
func TestConformanceByteIdentity(t *testing.T) {
	direct := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer direct.Close()
	f := newFleet(t, 2, nil)

	// The replica's body caps (service/http.go), not the gateway's copy.
	overCap := strings.Repeat("x", 1<<20+1)
	overBatchCap := strings.Repeat("x", 8<<20+1)

	// Failing split batches, answered exactly as a direct replica
	// answers the whole batch. The bad items belong to the replica that
	// does not own item 0, so an item's index in its sub-batch differs
	// from its batch index, and the first bad item is not the first item
	// of any sub-batch.
	item0 := `{"plant":"dc-servo","period":0.006}`
	x, y := f.g.reps[0], f.g.reps[1]
	if ownerOf(f.g, item0) == y {
		x, y = y, x
	}
	invalidItem := `{"items":[` + item0 + `,{"plant":"inverted-pendulum","period":0.008},{"plant":"fast-servo","period":0.01},{"plant":"double-integrator","period":0.02},{"plant":"stable-lag","period":0.05},` +
		ownedItem(t, f.g, y, `{"tasks":[{"bcet":2,"wcet":1,"period":%d}]}`) + `]}`
	unknownFields := `{"items":[` + item0 + "," +
		ownedItem(t, f.g, y, `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":%d}],"unknown_a":1}`) + "," +
		ownedItem(t, f.g, x, `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":%d}],"unknown_b":1}`) + `]}`
	for _, body := range []string{multiPlantBatch, invalidItem, unknownFields} {
		requireSplit(t, f.g, body)
	}
	cases := []struct {
		name, method, path, body string
		status                   int // 0: any status, as long as both sides agree
	}{
		{"analyze plant", "POST", "/v1/analyze", `{"plant":"dc-servo","period":0.006}`, 0},
		{"analyze tasks", "POST", "/v1/analyze", `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}`, 0},
		{"analyze bad", "POST", "/v1/analyze", `{"plant":"warp-core","period":0.01}`, 0},
		{"batch split", "POST", "/v1/analyze/batch", multiPlantBatch, 0},
		{"batch empty", "POST", "/v1/analyze/batch", `{"items":[]}`, 0},
		{"batch malformed", "POST", "/v1/analyze/batch", `{"items":[`, 0},
		{"batch bad item", "POST", "/v1/analyze/batch", `{"items":[{"plant":"dc-servo","period":0.006},{"plant":"nope","period":1},{"tasks":[{"bcet":2,"wcet":1,"period":1}]}]}`, 0},
		{"batch stream invalid item", "POST", "/v1/analyze/batch?stream=1", invalidItem, http.StatusBadRequest},
		{"batch unknown fields", "POST", "/v1/analyze/batch", unknownFields, http.StatusBadRequest},
		{"batch stream unknown fields", "POST", "/v1/analyze/batch?stream=1", unknownFields, http.StatusBadRequest},
		{"codesign", "POST", "/v1/codesign", `{"loops":[{"plant":"dc-servo","bcet":0.00105,"wcet":0.0015,"periods":[0.006,0.008,0.012]}],"seed":7}`, 0},
		{"experiment", "POST", "/v1/experiments/table1", `{"benchmarks":20,"sizes":[4],"seed":3,"gen":{"grid_points":4}}`, 0},
		{"experiment bad kind", "POST", "/v1/experiments/table9", `{}`, 0},
		{"analyze over cap", "POST", "/v1/analyze", overCap, http.StatusRequestEntityTooLarge},
		{"batch over cap", "POST", "/v1/analyze/batch", overBatchCap, http.StatusRequestEntityTooLarge},
		{"codesign over cap", "POST", "/v1/codesign", overCap, http.StatusRequestEntityTooLarge},
		{"experiment over cap", "POST", "/v1/experiments/table1", overCap, http.StatusRequestEntityTooLarge},
		{"submit over cap", "POST", "/v1/jobs", overBatchCap, http.StatusRequestEntityTooLarge},
		{"analyze GET", "GET", "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"batch GET", "GET", "/v1/analyze/batch", "", http.StatusMethodNotAllowed},
		{"codesign GET", "GET", "/v1/codesign", "", http.StatusMethodNotAllowed},
		{"experiment GET", "GET", "/v1/experiments/table1", "", http.StatusMethodNotAllowed},
		{"submit GET", "GET", "/v1/jobs", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		dResp, dBody := doRequest(t, tc.method, direct.URL+tc.path, tc.body)
		gResp, gBody := doRequest(t, tc.method, f.gw.URL+tc.path, tc.body)
		if dResp.StatusCode != gResp.StatusCode {
			t.Fatalf("%s: status direct=%d gateway=%d\ndirect: %s\ngateway: %s",
				tc.name, dResp.StatusCode, gResp.StatusCode, dBody, gBody)
		}
		if tc.status != 0 && dResp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, dResp.StatusCode, tc.status, dBody)
		}
		if d, g := dResp.Header.Get("Allow"), gResp.Header.Get("Allow"); d != g {
			t.Fatalf("%s: Allow direct=%q gateway=%q", tc.name, d, g)
		}
		if !bytes.Equal(dBody, gBody) {
			t.Fatalf("%s: gateway response not byte-identical to direct replica\ndirect:  %s\ngateway: %s",
				tc.name, dBody, gBody)
		}
	}

	// The split batch really did split: both replicas served items.
	if f.counts[0].Load() == 0 || f.counts[1].Load() == 0 {
		t.Fatalf("fleet traffic did not split: replica counts %d / %d",
			f.counts[0].Load(), f.counts[1].Load())
	}
}

// TestBatchStreamThroughGateway drives the scatter-gathered ?stream=1
// path: item lines arrive in strict global order with correctly
// remapped indices, terminated by the batch done line, and each item's
// result bytes match the buffered merged response.
func TestBatchStreamThroughGateway(t *testing.T) {
	f := newFleet(t, 2, nil)
	_, buffered := doPost(t, f.gw.URL+"/v1/analyze/batch", multiPlantBatch)
	var want struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(buffered, &want); err != nil {
		t.Fatalf("buffered merge unparseable: %v\n%s", err, buffered)
	}

	resp, err := http.Post(f.gw.URL+"/v1/analyze/batch?stream=1", "application/json", strings.NewReader(multiPlantBatch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	nextIdx, done := 0, -1
	for sc.Scan() {
		var line struct {
			Type   string          `json:"type"`
			Index  *int            `json:"index"`
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
			Done   int             `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch line.Type {
		case "item":
			if line.Index == nil || *line.Index != nextIdx {
				t.Fatalf("item lines out of order: got %v want %d", line.Index, nextIdx)
			}
			// Item payloads match the buffered merge (result for sound
			// items; error envelopes embed in the buffered body too).
			if line.Result != nil && !bytes.Equal(line.Result, want.Items[nextIdx]) {
				t.Fatalf("item %d stream/buffered bytes differ:\n%s\n%s", nextIdx, line.Result, want.Items[nextIdx])
			}
			nextIdx++
		case "result":
			done = line.Done
		case "error":
			t.Fatalf("stream error: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done != len(want.Items) || nextIdx != len(want.Items) {
		t.Fatalf("stream delivered %d items, done=%d, want %d", nextIdx, done, len(want.Items))
	}
}

// TestJobsThroughGateway pins the async surface: submission routes by
// the inner request's fingerprint, and status/result/cancel requests
// find the owning replica by broadcast — with results byte-identical
// to the synchronous response for the same request.
func TestJobsThroughGateway(t *testing.T) {
	f := newFleet(t, 2, nil)
	inner := `{"plant":"dc-servo","period":0.006}`

	resp, body := doPost(t, f.gw.URL+"/v1/jobs", `{"kind":"analyze","request":`+inner+`}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &status); err != nil || status.ID == "" {
		t.Fatalf("submit response unparseable: %v\n%s", err, body)
	}

	// Poll the job through the gateway until terminal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = f.get(t, "/v1/jobs/"+status.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &status); err != nil {
			t.Fatal(err)
		}
		if status.State == "done" || status.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status.State != "done" {
		t.Fatalf("job state %q: %s", status.State, body)
	}

	resp, jobResult := f.get(t, "/v1/jobs/"+status.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, jobResult)
	}
	_, direct := doPost(t, f.gw.URL+"/v1/analyze", inner)
	if !bytes.Equal(jobResult, direct) {
		t.Fatalf("job result through gateway differs from synchronous response:\n%s\n%s", jobResult, direct)
	}

	// Unknown job IDs 404 with the replica's canonical envelope.
	resp, body = f.get(t, "/v1/jobs/feedfacedeadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "not_found" {
		t.Fatalf("unknown job envelope: %s", body)
	}
}

func (f *fleet) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(f.gw.URL + path)
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

// TestAffinityKeepsPlantOnOneReplica is the cache-locality property the
// ring exists for: every request touching one plant lands on one
// replica, while -affinity=false spreads the same workload.
func TestAffinityKeepsPlantOnOneReplica(t *testing.T) {
	f := newFleet(t, 2, nil)
	for i := 0; i < 10; i++ {
		resp, body := doPost(t, f.gw.URL+"/v1/analyze",
			fmt.Sprintf(`{"plant":"dc-servo","period":%g}`, 0.004+float64(i)*1e-4))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze %d: %d %s", i, resp.StatusCode, body)
		}
	}
	a, b := f.counts[0].Load(), f.counts[1].Load()
	if a != 0 && b != 0 {
		t.Fatalf("same-plant requests split across replicas: %d / %d", a, b)
	}
	if a+b != 10 {
		t.Fatalf("lost requests: %d / %d", a, b)
	}

	// Round-robin mode spreads the identical workload.
	rr := newFleet(t, 2, func(o *Options) { o.NoAffinity = true })
	for i := 0; i < 10; i++ {
		doPost(t, rr.gw.URL+"/v1/analyze",
			fmt.Sprintf(`{"plant":"dc-servo","period":%g}`, 0.004+float64(i)*1e-4))
	}
	if rr.counts[0].Load() == 0 || rr.counts[1].Load() == 0 {
		t.Fatalf("round-robin mode did not spread: %d / %d", rr.counts[0].Load(), rr.counts[1].Load())
	}
}

// TestReplicaFailover: a dead replica is marked down on first contact
// and traffic retargets without a client-visible failure, for a single
// analyze and for a batch split between the dead replica and the
// survivor; a draining replica leaves rotation at the next health poll.
func TestReplicaFailover(t *testing.T) {
	direct := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer direct.Close()
	body := `{"plant":"dc-servo","period":0.01}`
	var f *fleet
	var alive int
	for _, path := range []string{"/v1/analyze", "/v1/analyze/batch"} {
		f = newFleet(t, 2, nil)
		// Kill the replica that owns dc-servo, so the very next request
		// is guaranteed to hit the dead owner and trigger failover.
		owner := ownerOf(f.g, body)
		var dead int
		for i, rep := range f.g.reps {
			if rep == owner {
				dead = i
			} else {
				alive = i
			}
		}
		req := body
		if path == "/v1/analyze/batch" {
			req = `{"items":[` + body + "," + ownedItem(t, f.g, f.g.reps[alive], `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":%d}]}`) + `]}`
			requireSplit(t, f.g, req)
		}
		f.reps[dead].Close()

		resp, respBody := doPost(t, f.gw.URL+path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s after dc-servo's owner died: %d %s", path, resp.StatusCode, respBody)
		}
		if _, want := doPost(t, direct.URL+path, req); !bytes.Equal(respBody, want) {
			t.Fatalf("%s after failover differs from a direct replica:\n%s\n%s", path, respBody, want)
		}
		if f.g.reps[dead].up.Load() {
			t.Fatalf("%s: dead replica still marked ready after proxy error", path)
		}
		if !f.g.reps[alive].up.Load() {
			t.Fatalf("%s: healthy replica lost ready state", path)
		}
	}

	// The survivor starts draining: the health poll takes it out and the
	// gateway goes not-ready (no replica left).
	f.svcs[alive].BeginDrain()
	f.g.CheckReplicas(context.Background())
	resp, body2 := f.get(t, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway ready with zero ready replicas: %d %s", resp.StatusCode, body2)
	}
	resp, body2 = doPost(t, f.gw.URL+"/v1/analyze", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("proxy with zero replicas: %d %s", resp.StatusCode, body2)
	}
}

// TestSingleOwnerBatchReachesOwner sends every two-plant batch whose
// items share one owner: each must reach that owner, whichever replica
// owns the ring point of the batch's plant set.
func TestSingleOwnerBatchReachesOwner(t *testing.T) {
	f := newFleet(t, 2, nil)
	plants := []string{"dc-servo", "inverted-pendulum", "fast-servo", "double-integrator", "stable-lag"}
	sent := 0
	for i, a := range plants {
		for _, b := range plants[i+1:] {
			itemA := fmt.Sprintf(`{"plant":%q,"period":0.01}`, a)
			itemB := fmt.Sprintf(`{"plant":%q,"period":0.02}`, b)
			owner := ownerOf(f.g, itemA)
			if ownerOf(f.g, itemB) != owner {
				continue
			}
			idx := 0
			if f.g.reps[1] == owner {
				idx = 1
			}
			before := [2]int64{f.counts[0].Load(), f.counts[1].Load()}
			resp, body := doPost(t, f.gw.URL+"/v1/analyze/batch", `{"items":[`+itemA+","+itemB+`]}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s + %s: %d %s", a, b, resp.StatusCode, body)
			}
			if got := f.counts[idx].Load() - before[idx]; got != 1 {
				t.Errorf("%s + %s: their owner replica-%d served %d requests, want 1", a, b, idx, got)
			}
			sent++
		}
	}
	if sent == 0 {
		t.Fatal("no two plants share an owner")
	}
}

// slowReplica answers /readyz instantly and holds every /v1 request
// until released — a stand-in backend for gateway saturation tests.
func slowReplica(t *testing.T) (*httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte(`{"status":"ready"}` + "\n"))
			return
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return srv, release
}

// TestGatewaySheds429 pins the gateway's own load shedding: with its
// pool full and queueing disabled, a request sheds with 429, the
// saturated code, and a parseable Retry-After — and per-client
// fairness sheds a single greedy client while others still queue.
func TestGatewaySheds429(t *testing.T) {
	rep, release := slowReplica(t)
	g, err := New(Options{Replicas: []string{rep.URL}, MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Occupy the single slot.
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		resp, err := http.Post(gw.URL+"/v1/analyze", "application/json", strings.NewReader(`{}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return g.pool.Stats().Running == 1 })

	resp, body := doPost(t, gw.URL+"/v1/analyze", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated gateway: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "saturated" {
		t.Fatalf("shed envelope: %s", body)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q unparseable", resp.Header.Get("Retry-After"))
	}

	// Probes stay answerable while the pool is saturated.
	hResp, err := http.Get(gw.URL + "/healthz")
	if err != nil || hResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under saturation: %v %v", err, hResp)
	}
	hResp.Body.Close()

	release <- struct{}{}
	<-firstDone
}

// TestGatewayPerClientFairness: one client at its allowance sheds with
// client_saturated while a second client still queues.
func TestGatewayPerClientFairness(t *testing.T) {
	rep, release := slowReplica(t)
	g, err := New(Options{Replicas: []string{rep.URL}, MaxConcurrent: 1, MaxQueue: 8, PerClient: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	postAs := func(client string) (*http.Response, []byte, error) {
		req, _ := http.NewRequest(http.MethodPost, gw.URL+"/v1/analyze", strings.NewReader(`{}`))
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b, nil
	}

	aliceDone := make(chan int, 1)
	go func() {
		resp, _, err := postAs("alice")
		if err != nil {
			aliceDone <- 0
			return
		}
		aliceDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return g.pool.Stats().Running == 1 })

	resp, body, err := postAs("alice")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-allowance client: %d %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("client_saturated")) {
		t.Fatalf("shed envelope: %s", body)
	}

	bobDone := make(chan int, 1)
	go func() {
		resp, _, err := postAs("bob")
		if err != nil {
			bobDone <- 0
			return
		}
		bobDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return g.pool.Stats().Queued == 1 })

	close(release)
	if got := <-aliceDone; got != http.StatusOK {
		t.Fatalf("alice's admitted request finished with %d", got)
	}
	if got := <-bobDone; got != http.StatusOK {
		t.Fatalf("bob's queued request finished with %d", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatewayRaceHammer mixes admitted, shed, and canceled traffic —
// plain and streamed, single and batch — through a 2-replica fleet
// under the race detector. Success responses must be byte-stable per
// request; failures must be shed envelopes, never corruption.
func TestGatewayRaceHammer(t *testing.T) {
	f := newFleet(t, 2, func(o *Options) {
		o.MaxConcurrent = 4
		o.MaxQueue = 2
		o.PerClient = 3
	})
	reqs := []struct{ path, body string }{
		{"/v1/analyze", `{"plant":"dc-servo","period":0.006}`},
		{"/v1/analyze", `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}`},
		{"/v1/analyze/batch", `{"items":[{"plant":"dc-servo","period":0.006},{"plant":"fast-servo","period":0.01},{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}]}`},
		{"/v1/analyze/batch?stream=1", `{"items":[{"plant":"inverted-pendulum","period":0.008},{"plant":"stable-lag","period":0.05}]}`},
		{"/v1/experiments/table1", `{"benchmarks":10,"sizes":[4],"seed":5,"gen":{"grid_points":4}}`},
	}
	want := make(map[string][]byte)
	var mu sync.Mutex

	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for gor := 0; gor < 8; gor++ {
		gor := gor
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 12; i++ {
				tc := reqs[(gor+i)%len(reqs)]
				ctx := context.Background()
				if gor == 7 && i%3 == 0 {
					// A canceling client: its requests may die mid-flight.
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%5)*time.Millisecond)
					defer cancel()
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.gw.URL+tc.path, strings.NewReader(tc.body))
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("X-Client", fmt.Sprintf("h%d", gor%4))
				resp, err := client.Do(req)
				if err != nil {
					continue // canceled mid-flight: fine
				}
				b, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if strings.Contains(tc.path, "stream") {
						continue // line framing, not a stable single body
					}
					mu.Lock()
					prev, ok := want[tc.path+tc.body]
					if !ok {
						want[tc.path+tc.body] = b
					}
					mu.Unlock()
					if ok && !bytes.Equal(prev, b) {
						errs <- fmt.Errorf("%s: bytes changed under load", tc.path)
						return
					}
				case http.StatusTooManyRequests:
					if !bytes.Contains(b, []byte("saturated")) {
						errs <- fmt.Errorf("429 without shed envelope: %s", b)
						return
					}
				case http.StatusServiceUnavailable:
					// canceled while queued / drained replica: envelope only
					if !bytes.Contains(b, []byte(`"error"`)) {
						errs <- fmt.Errorf("503 without envelope: %s", b)
						return
					}
				default:
					errs <- fmt.Errorf("%s: unexpected status %d: %s", tc.path, resp.StatusCode, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadCappedHeaderOnlyAllocatesLittle hands readCapped requests that
// announce the batch cap in Content-Length and end without a body byte,
// as a client does that sends only headers and hangs up. The gateway
// must not allocate the announced length before the bytes arrive.
func TestReadCappedHeaderOnlyAllocatesLittle(t *testing.T) {
	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze/batch", iotest.ErrReader(io.ErrUnexpectedEOF))
		r.ContentLength = service.MaxBatchBodyBytes
		if _, err := readCapped(r, service.MaxBatchBodyBytes); err == nil {
			t.Fatal("a body that ended before its announced length was read without error")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / reads; per > service.MaxBatchBodyBytes/8 {
		t.Fatalf("a header-only request announcing %d bytes allocated %d bytes per read, want at most %d",
			service.MaxBatchBodyBytes, per, service.MaxBatchBodyBytes/8)
	}
}
