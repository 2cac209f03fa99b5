package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jobs"
)

// kindURL is the sync route of one kind-table row.
func kindURL(base string, k *kind) string {
	if k.route == "" {
		return base + "/v1/experiments/" + k.name
	}
	return base + k.route
}

// submitAndFetch runs body as a kind job over HTTP and returns the
// status and bytes of its /v1/jobs/{id}/result, and the event types of
// its replayed ?stream=1 other than progress.
func submitAndFetch(t *testing.T, s *Service, base, name, body string) (int, []byte, []string) {
	t.Helper()
	resp, b := post(t, base+"/v1/jobs", `{"kind":"`+name+`","request":`+body+`}`)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, b, nil
	}
	var st jobs.Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}
	waitJob(t, j)
	stream, err := http.Get(base + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	types := eventTypes(readEvents(t, stream.Body))
	res, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	got, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, got, types
}

// readEvents parses a typed event stream and drops its progress lines,
// whose number depends on timing.
func readEvents(t *testing.T, r io.Reader) []jobs.Event {
	t.Helper()
	var evs []jobs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type != jobs.EventProgress {
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

func eventTypes(evs []jobs.Event) []string {
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	return types
}

// streamResult posts body with ?stream=1 and rebuilds the buffered
// response from the lines: the result line's bytes, or a batch's item
// lines reassembled into the envelope. It also returns the stream's
// event types other than progress.
func streamResult(t *testing.T, url, body string) ([]byte, []string) {
	t.Helper()
	resp, err := http.Post(url+"?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}
	evs := readEvents(t, resp.Body)
	var result json.RawMessage
	var items []json.RawMessage
	for _, ev := range evs {
		switch ev.Type {
		case jobs.EventError:
			t.Fatalf("stream error: %+v", ev.Error)
		case jobs.EventItem:
			if ev.Error != nil {
				env, _ := json.Marshal(batchItemError{Error: ev.Error.Message})
				items = append(items, env)
			} else {
				items = append(items, ev.Result)
			}
		case jobs.EventResult:
			if ev.Result == nil {
				if ev.Done != len(items) {
					t.Fatalf("batch terminator done=%d after %d items", ev.Done, len(items))
				}
				var buf bytes.Buffer
				if err := experiments.EncodeJSON(&buf, BatchResult{
					Meta:  experiments.Meta{Kind: kindAnalyzeBatch, Schema: experiments.SchemaVersion, Items: len(items)},
					Items: items,
				}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), eventTypes(evs)
			}
			result = ev.Result
		}
	}
	if result == nil {
		t.Fatal("stream ended without a result line")
	}
	return append(result, '\n'), eventTypes(evs)
}

// TestEveryKindAgreesAcrossSurfaces walks the kind table: for every
// row, the row's example computed on fresh services through the sync
// route, the ?stream=1 route and a job yields the same bytes, a repeat
// is a cache hit, and an unknown field is a 400 on every surface. The
// job runs twice on a service with a durable store: both runs stream
// the event types ?stream=1 does (cache and result on a row without a
// stream route), and only a stored row's first run writes the store,
// which shows that the pipeline alone decides what is stored.
func TestEveryKindAgreesAcrossSurfaces(t *testing.T) {
	for _, name := range JobKinds() {
		k := kindTable[name]
		t.Run(name, func(t *testing.T) {
			syncSrv := newTestServer(t, Config{Workers: 2})
			resp, want := post(t, kindURL(syncSrv.URL, k), k.example)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("sync status %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), want)
			}
			resp, again := post(t, kindURL(syncSrv.URL, k), k.example)
			if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(again, want) {
				t.Fatalf("repeat: X-Cache %q, same bytes %v", resp.Header.Get("X-Cache"), bytes.Equal(again, want))
			}

			wantTypes := []string{jobs.EventCache, jobs.EventResult}
			if k.stream {
				streamSrv := newTestServer(t, Config{Workers: 2})
				got, types := streamResult(t, kindURL(streamSrv.URL, k), k.example)
				if !bytes.Equal(got, want) {
					t.Fatalf("stream result differs from the sync body:\n%s\n%s", got, want)
				}
				wantTypes = types
			}

			jobSvc := New(Config{Workers: 2, JobsDir: t.TempDir()})
			jobSrv := httptest.NewServer(jobSvc.Handler())
			defer jobSrv.Close()
			firstPuts := int64(0)
			if k.tiers&tierStore != 0 {
				firstPuts = 1
			}
			for run, wantPuts := range []int64{firstPuts, 0} {
				puts := jobSvc.store.Stats().Puts
				status, got, types := submitAndFetch(t, jobSvc, jobSrv.URL, name, k.example)
				if status != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("job %d result status %d, same bytes %v:\n%s\n%s", run+1, status, bytes.Equal(got, want), got, want)
				}
				if !slices.Equal(types, wantTypes) {
					t.Fatalf("job %d streamed %v, want %v", run+1, types, wantTypes)
				}
				if grew := jobSvc.store.Stats().Puts - puts; grew != wantPuts {
					t.Fatalf("job %d: result_store.puts grew by %d, want %d", run+1, grew, wantPuts)
				}
			}

			const unknown = `{"no_such_field":1}`
			urls := []string{kindURL(syncSrv.URL, k)}
			if k.stream {
				urls = append(urls, kindURL(syncSrv.URL, k)+"?stream=1")
			}
			for _, url := range urls {
				if resp, b := post(t, url, unknown); resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%s: unknown field got %d: %s", url, resp.StatusCode, b)
				}
			}
			if status, b, _ := submitAndFetch(t, jobSvc, jobSrv.URL, name, unknown); status != http.StatusBadRequest {
				t.Fatalf("job: unknown field got %d: %s", status, b)
			}
		})
	}
}

// TestCountEachRequestOnce sends a fixed mix across kinds — a miss and
// a hit of every row's example, a 400 per kind, an unknown experiment,
// and one job per kind — and checks that every sync call and job run is
// one request, every failure one error, and that the result cache
// counts one miss per computed result.
func TestCountEachRequestOnce(t *testing.T) {
	s := New(Config{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	calls, failures, runs := 0, 0, 0
	send := func(url, body string, want int) {
		t.Helper()
		resp, b := post(t, url, body)
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", url, resp.StatusCode, want, b)
		}
		calls++
		if want != http.StatusOK {
			failures++
		}
	}
	for _, name := range JobKinds() {
		k := kindTable[name]
		send(kindURL(srv.URL, k), k.example, http.StatusOK) // miss
		send(kindURL(srv.URL, k), k.example, http.StatusOK) // hit
		send(kindURL(srv.URL, k), `{"no_such_field":1}`, http.StatusBadRequest)
	}
	send(srv.URL+"/v1/experiments/table9", `{}`, http.StatusNotFound)
	// The Go API enters the same pipeline.
	ctx := context.Background()
	errOf := func(_ []byte, _ bool, err error) error { return err }
	for _, err := range []error{
		errOf(s.Experiment(ctx, "table9", nil, nil)),
		errOf(s.Experiment(ctx, experiments.KindTable1, []byte(kindTable[experiments.KindTable1].example), nil)),
		errOf(s.Analyze(ctx, []byte(`{"no_such_field":1}`))),
		errOf(s.AnalyzeBatch(ctx, []byte(batchKind.example), nil)),
		errOf(s.Codesign(ctx, []byte(codesignKind.example), nil)),
	} {
		calls++
		if err != nil {
			failures++
		}
	}
	for _, name := range JobKinds() {
		if status, b, _ := submitAndFetch(t, s, srv.URL, name, kindTable[name].example); status != http.StatusOK {
			t.Fatalf("%s job: status %d: %s", name, status, b)
		}
		runs++
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Stats       Stats    `json:"stats"`
		ResultCache lruStats `json:"result_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Stats.Requests != int64(calls+runs) {
		t.Errorf("requests = %d, want %d sync calls + %d job runs", h.Stats.Requests, calls, runs)
	}
	if h.Stats.Errors != int64(failures) {
		t.Errorf("errors = %d, want %d failures", h.Stats.Errors, failures)
	}
	if h.ResultCache.Misses != h.Stats.CacheMisses || h.Stats.CacheMisses == 0 {
		t.Errorf("result_cache.misses = %d, stats.cache_misses = %d: want equal and nonzero", h.ResultCache.Misses, h.Stats.CacheMisses)
	}
}

// TestWarmStartFieldRejected pins the removal of the warm-started
// co-design search: a body that still asks for it is an unknown field.
func TestWarmStartFieldRejected(t *testing.T) {
	body := strings.Replace(codesignKind.example, `"horizon"`, `"warm_start":true,"horizon"`, 1)
	_, _, err := newTestService().Codesign(context.Background(), []byte(body), nil)
	if HTTPStatus(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "warm_start") {
		t.Fatalf("warm_start body: %v", err)
	}
}
