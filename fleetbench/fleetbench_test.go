package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	seq := func(n, inf int) []float64 {
		out := make([]float64, 0, n)
		for i := 1; i <= n-inf; i++ {
			out = append(out, float64(i))
		}
		for i := 0; i < inf; i++ {
			out = append(out, math.Inf(1))
		}
		return out
	}
	cases := []struct {
		name    string
		samples []float64
		q       float64
		want    float64
		wantErr bool
	}{
		{"p99 with exactly 10 beyond", seq(1000, 0), 0.99, 990, false},
		{"p99 with 9 beyond", seq(999, 0), 0.99, 0, true},
		{"p99 of 100 samples", seq(100, 0), 0.99, 0, true},
		{"failures beyond p99 leave it finite", seq(1000, 10), 0.99, 990, false},
		{"failures reaching p99 make it +Inf", seq(1000, 11), 0.99, math.Inf(1), false},
		{"median of odd count", seq(5, 0), 0.5, 3, false},
		{"median of even count is the lower middle", seq(4, 0), 0.5, 2, false},
		{"median counts failures", seq(5, 3), 0.5, math.Inf(1), false},
		{"no samples", nil, 0.5, 0, true},
	}
	for _, tc := range cases {
		got, err := percentile(tc.samples, tc.q)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpanLinkingAndSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanClient, Client: 0, Start: 0, End: 110},
		{Name: spanGateway, Client: 0, Start: 2, End: 100},
		// A batch's two sub-batch calls overlap in [30, 50].
		{Name: spanUpstream, Client: 0, Replica: 0, Start: 10, End: 50},
		{Name: spanUpstream, Client: 0, Replica: 1, Start: 30, End: 70},
		{Name: spanHandler, Client: 0, Replica: 0, Start: 15, End: 45},
		{Name: spanHandler, Client: 0, Replica: 1, Start: 35, End: 60},
		// The other client's request overlaps in time but is not a child.
		{Name: spanClient, Client: 1, Start: 5, End: 90},
		{Name: spanGateway, Client: 1, Start: 6, End: 80},
		{Name: spanUpstream, Client: 1, Replica: 0, Start: 20, End: 40},
	}
	for i := range spans {
		spans[i].Parent = -1
	}
	linkParents(spans)
	wantParent := []int{-1, 0, 1, 1, 2, 3, -1, 6, 7}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s client %d): parent %d, want %d", i, s.Name, s.Client, s.Parent, wantParent[i])
		}
	}
	if got := selfTimes(spans, spanGateway); len(got) != 2 || got[0] != 98-60 || got[1] != 74-20 {
		t.Errorf("gateway self times %v, want [38 54]", got)
	}
	if got := transportTimes(spans); len(got) != 2 || got[0] != 40-30 || got[1] != 40-25 {
		t.Errorf("transport times %v, want [10 15]", got)
	}
}

func TestTracerRecordsOnlyTracedRequests(t *testing.T) {
	tr := newTracer()
	defer tr.free()
	tr.clients[1].request.Store(7)
	tr.record(spanUpstream, 1, 0, 5) // recorded directly, as the wrappers do when active
	h := tr.handler(spanHandler, 1, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	req, _ := http.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Client", "bench-1")
	h.ServeHTTP(nil, req) // client 1 is not traced: no span
	tr.clients[1].traced.Store(true)
	h.ServeHTTP(nil, req)
	req.Header.Set("X-Client", "loadgen-1")
	h.ServeHTTP(nil, req) // not a benchmark client: no span
	spans, err := tr.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2: %+v", len(spans), spans)
	}
	up, hd := spans[0], spans[1]
	if up.Name != spanUpstream || up.Client != 1 || up.Replica != 0 || up.Request != 7 || up.Start != 5 || up.End < up.Start {
		t.Errorf("upstream span decoded as %+v", up)
	}
	if hd.Name != spanHandler || hd.Client != 1 || hd.Replica != 1 || hd.Request != 7 || hd.End < hd.Start {
		t.Errorf("handler span decoded as %+v", hd)
	}
}

func TestUnionLen(t *testing.T) {
	cases := []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{0, 10}, {2, 3}}, 10},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
	}
	for _, tc := range cases {
		if got := unionLen(tc.iv); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.iv, got, tc.want)
		}
	}
}

func TestGeneratorsDeterministicAndSeeded(t *testing.T) {
	for name, w := range workloads {
		for n := 0; n < 50; n++ {
			a, b := w.gen(7, n), w.gen(7, n)
			if string(a.body) != string(b.body) || string(a.refBody) != string(b.refBody) {
				t.Fatalf("%s: request %d differs between two calls with one seed", name, n)
			}
			if c := w.gen(8, n); string(c.body) == string(a.body) {
				t.Fatalf("%s: request %d is the same under seeds 7 and 8", name, n)
			}
			if d := w.gen(7, n+1); string(d.body) == string(a.body) {
				t.Fatalf("%s: requests %d and %d are identical", name, n, n+1)
			}
		}
	}
}

func TestBatchItemsHotAndNovelApart(t *testing.T) {
	hot := make(map[string]bool, len(hotItems))
	for _, it := range hotItems {
		hot[it] = true
	}
	seen := make(map[string]bool)
	hotSeen := make(map[string]int)
	const requests = 400
	for n := 0; n < requests; n++ {
		r := batchMix.gen(3, n)
		var body struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			t.Fatalf("request %d: %v", n, err)
		}
		if len(body.Items) != batchSize {
			t.Fatalf("request %d: %d items, want %d", n, len(body.Items), batchSize)
		}
		nHot := 0
		for _, raw := range body.Items {
			it := string(raw)
			if hot[it] {
				nHot++
				hotSeen[it]++
				continue
			}
			if !strings.HasPrefix(it, `{"tasks":[`) {
				t.Fatalf("request %d: item %s is neither hot nor a task set", n, it)
			}
			if seen[it] {
				t.Fatalf("request %d: novel item repeats: %s", n, it)
			}
			seen[it] = true
		}
		if nHot != batchHot {
			t.Fatalf("request %d: %d hot items, want %d", n, nHot, batchHot)
		}
	}
	if len(hotSeen) != hotPoolItems {
		t.Fatalf("%d distinct hot items used, want the whole pool of %d", len(hotSeen), hotPoolItems)
	}
}

func TestCodesignRequestsShareNoPeriod(t *testing.T) {
	owner := make(map[string]int) // "plant period" -> request number
	pairs := make(map[[2]string]int)
	for _, seed := range []int64{1, 2} {
		for k := range owner {
			delete(owner, k)
		}
		for n := 0; n < 3000; n++ {
			var req struct {
				Loops []struct {
					Plant   string    `json:"plant"`
					Periods []float64 `json:"periods"`
				} `json:"loops"`
			}
			if err := json.Unmarshal(codesignCold.gen(seed, n).body, &req); err != nil {
				t.Fatal(err)
			}
			pairs[[2]string{req.Loops[0].Plant, req.Loops[1].Plant}]++
			for _, l := range req.Loops {
				for _, h := range l.Periods {
					k := fmt.Sprintf("%s %v", l.Plant, h)
					if m, dup := owner[k]; dup {
						t.Fatalf("seed %d: requests %d and %d both search %s", seed, m, n, k)
					}
					owner[k] = n
				}
			}
		}
	}
	if len(pairs) != len(plantPairs) {
		t.Fatalf("requests use %d plant pairs, want all %d", len(pairs), len(plantPairs))
	}
}

func TestCheckBatch(t *testing.T) {
	item := `{"tasks":[{"name":"a\"]}{","slack":"inf"}]}`
	body := func(items ...string) []byte {
		return []byte(fmt.Sprintf(`{"meta":{"kind":"analyze_batch","schema":1,"seed":0,"items":%d},"items":[%s]}`+"\n", len(items), strings.Join(items, ",")))
	}
	if err := checkBatch(body(item, item), 2); err != nil {
		t.Fatalf("well-formed batch rejected: %v", err)
	}
	bad := map[string][]byte{
		"wrong count":        body(item),
		"error envelope":     body(item, `{"error":"boom"}`),
		"truncated":          body(item, item)[:60],
		"no items":           []byte(`{"meta":{"items":2}}`),
		"meta disagrees":     []byte(`{"meta":{"items":3},"items":[{},{}]}`),
		"trailing garbage":   append(body(item, item)[:len(body(item, item))-2], []byte("}x")...),
		"not an object tail": []byte(`{"meta":{"items":2},"items":[{},{}]`),
	}
	for name, b := range bad {
		if err := checkBatch(b, 2); err == nil {
			t.Errorf("%s: accepted %q", name, b)
		}
	}
}

// TestReplicaNamesSplitPlants pins the fixed replica names: the five
// library plants split 3/2 across the replicas, and both replicas own
// some of the ten plant pairs (routing depends only on the plant set,
// so two-plant task sets stand in for two-loop searches).
func TestReplicaNamesSplitPlants(t *testing.T) {
	f, err := newFleet(t.TempDir(), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	ctx := context.Background()
	if err := f.ready(ctx); err != nil {
		t.Fatal(err)
	}
	c := newClient(0, f.gwURL, newHTTPClient(), newTracer())
	owner := func(body string) int {
		before := [2]int64{f.up.calls[0].Load(), f.up.calls[1].Load()}
		if out := c.post(ctx, "/v1/analyze", []byte(body)); out.err != nil || out.status != http.StatusOK {
			t.Fatalf("analyze %s: %v", body, out.err)
		}
		for i := range before {
			if f.up.calls[i].Load() != before[i] {
				return i
			}
		}
		t.Fatalf("analyze %s reached no replica", body)
		return -1
	}
	var single, pair [2]int
	for _, p := range plants {
		single[owner(fmt.Sprintf(`{"plant":%q,"period":0.01}`, p))]++
	}
	for _, pp := range plantPairs {
		pair[owner(fmt.Sprintf(`{"tasks":[{"plant":%q,"bcet":0.001,"wcet":0.001,"period":0.01},{"plant":%q,"bcet":0.001,"wcet":0.001,"period":0.01}]}`, pp[0], pp[1]))]++
	}
	if single != [2]int{3, 2} && single != [2]int{2, 3} {
		t.Errorf("plants split %v, want 3/2", single)
	}
	if pair[0] == 0 || pair[1] == 0 {
		t.Errorf("plant pairs split %v, want both replicas used", pair)
	}
}

// TestCountsRepeat runs each workload's count phase twice on fresh
// fleets and requires every exact count to repeat.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six fleets")
	}
	ctx := context.Background()
	for name, w := range workloads {
		var runs [2]map[string]float64
		for k := range runs {
			tr := newTracer()
			f, err := setupFleet(ctx, t.TempDir(), w, 5, tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[k], err = countPhase(ctx, f, w, 5, 6, tr)
			f.close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for metric, def := range countDefs {
			// kmemo.hits is exact unless concurrent evaluations of one
			// search coalesce onto a kernel computation.
			exact := def.exact || (metric == "kmemo.hits" && name != "codesign_cold")
			if exact && runs[0][metric] != runs[1][metric] {
				t.Errorf("%s: %s = %v then %v", name, metric, runs[0][metric], runs[1][metric])
			}
		}
		if runs[0]["gateway.calls_r0"] == 0 || runs[0]["gateway.calls_r1"] == 0 {
			t.Errorf("%s: calls r0=%v r1=%v, want both replicas used", name, runs[0]["gateway.calls_r0"], runs[0]["gateway.calls_r1"])
		}
	}
}
