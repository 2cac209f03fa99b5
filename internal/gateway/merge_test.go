package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ctrlsched/internal/service"
)

// TestSplitItems pins what the merge's splitter accepts: the top-level
// items array of a valid envelope, found by parsing the top level, not
// by searching for the key.
func TestSplitItems(t *testing.T) {
	cases := []struct {
		body string
		want []string // nil: refused
	}{
		{`{"meta":{"items":[9]},"items":[{"a":"]"},"x",1.5e-3,true,null,[]]}`, []string{`{"a":"]"}`, `"x"`, `1.5e-3`, `true`, `null`, `[]`}},
		{" {\n \"items\" : [ 1 ,\t\"a\\\"]\" ] , \"z\" : {} } ", []string{`1`, `"a\"]"`}},
		{`{"items":[]}`, []string{}},
		{`{"ITEMS":[1]}`, []string{`1`}}, // encoding/json matches keys case-insensitively
		{`{"items":[1],"items":[2]}`, nil},
		{`{"items":[1],"Items":[2]}`, nil},
		{`{"item\u0073":[1]}`, nil}, // an escaped key is refused outright
		{`{"items":null}`, nil},
		{`{"items":{}}`, nil},
		{`{"meta":{}}`, nil},
		{`[{"items":[1]}]`, nil},
		{`{"items":[1,]}`, nil},
		{`{"items":[1]`, nil},
		{`{"items":[1]} x`, nil},
		{``, nil},
	}
	for _, tc := range cases {
		items, ok := splitItems([]byte(tc.body))
		if ok != (tc.want != nil) {
			t.Fatalf("splitItems(%q) ok=%v, want %v", tc.body, ok, tc.want != nil)
		}
		if len(items) != len(tc.want) {
			t.Fatalf("splitItems(%q) = %q, want %q", tc.body, items, tc.want)
		}
		for i := range items {
			if string(items[i]) != tc.want[i] {
				t.Fatalf("splitItems(%q) item %d = %s, want %s", tc.body, i, items[i], tc.want[i])
			}
		}
	}
}

// FuzzSplitItems checks the splitter against encoding/json: wherever
// splitItems accepts a body, json.Unmarshal into
// struct{ Items []json.RawMessage } succeeds and yields the same item
// bytes. The seeds are real replica envelopes, each with an in-band item
// error, plus shapes the splitter must parse around or refuse.
func FuzzSplitItems(f *testing.F) {
	f.Add(readGolden(f, "analyze_batch.json"))
	envelope, _, err := service.New(service.Config{Workers: 1}).AnalyzeBatch(context.Background(),
		[]byte(`{"items":[{"tasks":[{"name":"<a&b>","bcet":0.01,"wcet":0.02,"period":2,"plant":"inverted-pendulum"}]},{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]}]}`), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelope)
	for _, body := range []string{
		` { "items" : [ 1 , "a\"]" , {"items":[2]} , [ ] , null ] } `,
		`{"ITEMS":[1]}`, `{"items":[1],"items":[2]}`, `{"item\u0073":[1]}`,
		`{"items":null}`, `{"meta":{"items":[9]},"items":[true,-1.5e3]}`, `[1]`, `{"items":[1,`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, ok := splitItems(body)
		if !ok {
			return
		}
		var env struct{ Items []json.RawMessage }
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("splitItems accepted %q, which json.Unmarshal refuses: %v", body, err)
		}
		if len(items) != len(env.Items) {
			t.Fatalf("splitItems found %d items in %q, json.Unmarshal %d", len(items), body, len(env.Items))
		}
		for i := range items {
			if !bytes.Equal(items[i], env.Items[i]) {
				t.Fatalf("item %d of %q: splitItems %q, json.Unmarshal %q", i, body, items[i], env.Items[i])
			}
		}
	})
}

// TestBatchMergeRejectsBadReplicaBody makes one replica answer its
// sub-batch with 200 and a body that cannot be merged. The gateway must
// answer 502 rather than serve a partial or malformed merge.
func TestBatchMergeRejectsBadReplicaBody(t *testing.T) {
	// Twelve plantless task sets on top of the plant items: each routes
	// by its own body, so the batch splits across both replicas.
	items := []string{strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(multiPlantBatch), `{"items":[`), `]}`)}
	for i := 0; i < 12; i++ {
		items = append(items, fmt.Sprintf(`{"tasks":[{"bcet":0.001,"wcet":0.002,"period":%g}]}`, 0.01+float64(i)*1e-3))
	}
	batch := `{"items":[` + strings.Join(items, ",") + `]}`

	cases := []struct {
		name   string
		tamper func(body []byte) []byte
	}{
		{"not JSON", func([]byte) []byte { return []byte("<html>bad gateway</html>\n") }},
		{"no items", func([]byte) []byte {
			return []byte(`{"meta":{"kind":"analyze_batch","schema":1,"seed":0,"items":1}}` + "\n")
		}},
		{"one item short", func(b []byte) []byte {
			var env struct {
				Meta  json.RawMessage   `json:"meta"`
				Items []json.RawMessage `json:"items"`
			}
			if err := json.Unmarshal(b, &env); err != nil {
				panic(err)
			}
			env.Items = env.Items[:len(env.Items)-1]
			out, err := json.Marshal(env)
			if err != nil {
				panic(err)
			}
			return out
		}},
		{"cut mid-item", func(b []byte) []byte {
			return b[:bytes.Index(b, []byte(`"items":[`))+len(`"items":[`)+10]
		}},
	}
	for _, tc := range cases {
		tc := tc // the replica's handler captures it
		t.Run(tc.name, func(t *testing.T) {
			var tampered atomic.Int32 // written by the replica's handler goroutine
			f := newWrappedFleet(t, 2, nil, func(i int, h http.Handler) http.Handler {
				if i != 0 {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/analyze/batch" {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					body := rec.Body.Bytes()
					if rec.Code == http.StatusOK {
						body = tc.tamper(body)
						tampered.Add(1)
					}
					for k, v := range rec.Header() {
						w.Header()[k] = v
					}
					w.Header().Del("Content-Length")
					w.WriteHeader(rec.Code)
					_, _ = w.Write(body)
				})
			})
			split, ok := splitBatch([]byte(batch))
			if !ok || len(f.g.groupItems(split)) != 2 {
				t.Fatal("test batch does not split across both replicas")
			}
			resp, body := doPost(t, f.gw.URL+"/v1/analyze/batch", batch)
			if n := tampered.Load(); n != 1 {
				t.Fatalf("replica 0 answered %d sub-batches with 200, want 1", n)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("status %d, body %q: %v", resp.StatusCode, body, err)
			}
			if resp.StatusCode != http.StatusBadGateway || env.Error.Message != "replica returned an unmergeable batch body" {
				t.Fatalf("status %d, body %s; want 502 naming an unmergeable batch body", resp.StatusCode, body)
			}
		})
	}
}
