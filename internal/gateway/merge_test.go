package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ctrlsched/internal/service"
)

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
			split, ok := service.SplitItems([]byte(batch), true)
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

// TestBatchStreamSubStreamFailure makes one replica's sub-stream fail
// after its 200 and first line. A replica's error line must end the
// merged stream as it ended the replica's; a sub-stream that breaks off
// must abort the client's connection, never end a 200 cleanly.
func TestBatchStreamSubStreamFailure(t *testing.T) {
	errLine := `{"type":"error","error":{"code":"unavailable","message":"canceled during batch: context canceled"}}` + "\n"
	cases := []struct {
		name string
		fail func(w http.ResponseWriter) // after the sub-stream's first line
	}{
		{"error line", func(w http.ResponseWriter) { _, _ = w.Write([]byte(errLine)) }},
		{"broken off", func(http.ResponseWriter) { panic(http.ErrAbortHandler) }},
	}
	for _, tc := range cases {
		tc := tc // the replica's handler captures it
		t.Run(tc.name, func(t *testing.T) {
			f := newWrappedFleet(t, 2, nil, func(i int, h http.Handler) http.Handler {
				if i != 0 {
					return h
				}
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path != "/v1/analyze/batch" || !service.WantsStream(r) {
						h.ServeHTTP(w, r)
						return
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					first, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
					_, _ = w.Write(append(first, '\n'))
					w.(http.Flusher).Flush()
					tc.fail(w)
				})
			})
			requireSplit(t, f.g, multiPlantBatch)
			resp, err := http.Post(f.gw.URL+"/v1/analyze/batch?stream=1", "application/json", strings.NewReader(multiPlantBatch))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if tc.name == "broken off" {
				if err == nil {
					t.Fatalf("a broken-off sub-stream ended the merged stream cleanly: status %d\n%s", resp.StatusCode, body)
				}
				return
			}
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.HasSuffix(body, []byte(errLine)) {
				t.Fatalf("status %d, read error %v, body\n%s\nwant 200 ending in the replica's error line", resp.StatusCode, err, body)
			}
			if bytes.Contains(body, []byte(`"type":"result"`)) {
				t.Fatalf("merged stream carries a result line after a failed sub-stream:\n%s", body)
			}
		})
	}
}

// TestBatchMergeReadsChunkedAnswer makes one replica answer its
// sub-batch chunked, without the Content-Length replicas send with a
// buffered answer. The gateway must still merge, into the body a direct
// replica answers for the whole batch.
func TestBatchMergeReadsChunkedAnswer(t *testing.T) {
	var chunked atomic.Int64
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
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.Code)
			body := rec.Body.Bytes()
			_, _ = w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush() // the rest follows as a second chunk
			_, _ = w.Write(body[len(body)/2:])
			chunked.Add(1)
		})
	})
	requireSplit(t, f.g, multiPlantBatch)
	direct, want := doPost(t, f.reps[1].URL+"/v1/analyze/batch", multiPlantBatch)
	if direct.StatusCode != http.StatusOK || direct.ContentLength != int64(len(want)) {
		t.Fatalf("direct replica: status %d, Content-Length %d for a %d-byte body", direct.StatusCode, direct.ContentLength, len(want))
	}
	resp, got := doPost(t, f.gw.URL+"/v1/analyze/batch", multiPlantBatch)
	if chunked.Load() != 1 {
		t.Fatalf("replica 0 answered %d sub-batches chunked, want 1", chunked.Load())
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("gateway: status %d, body\n%s\nwant the direct replica's\n%s", resp.StatusCode, got, want)
	}
}
