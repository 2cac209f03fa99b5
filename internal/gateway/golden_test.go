package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The service package's committed golden fixtures, replayed through a
// 2-replica fleet. The bodies are verbatim copies of the fixtures'
// generating requests (internal/service/batch_test.go and
// codesign_test.go): if the gateway's scatter-gather or routing ever
// perturbs a single byte of a response, this fails the same way a
// kernel regression fails the service goldens.
const (
	goldenBatchBody = `{"items":[
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
	goldenCodesignBody = `{
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
)

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	path := filepath.Join("..", "service", "testdata", "golden", name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with `go test ./internal/service -run TestGolden -update`: %v", path, err)
	}
	return b
}

// TestGoldenGatewayConformance byte-diffs the committed service golden
// fixtures through a 2-replica fleet: the buffered scatter-gathered
// batch merge, the affinity-routed codesign response, and the async job
// result for the same codesign request must all equal the fixture
// bytes a single direct replica committed.
func TestGoldenGatewayConformance(t *testing.T) {
	f := newFleet(t, 2, nil)

	resp, got := doPost(t, f.gw.URL+"/v1/analyze/batch", goldenBatchBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through gateway: %d %s", resp.StatusCode, got)
	}
	if want := readGolden(t, "analyze_batch.json"); !bytes.Equal(want, got) {
		t.Fatalf("gateway batch response deviates from the committed golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	wantCodesign := readGolden(t, "codesign.json")
	resp, got = doPost(t, f.gw.URL+"/v1/codesign", goldenCodesignBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("codesign through gateway: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(wantCodesign, got) {
		t.Fatalf("gateway codesign response deviates from the committed golden.\ngot:\n%s\nwant:\n%s", got, wantCodesign)
	}

	// The same codesign request as an async job: the stored result the
	// gateway relays must be the fixture bytes too.
	submit, err := json.Marshal(struct {
		Kind    string          `json:"kind"`
		Request json.RawMessage `json:"request"`
	}{Kind: "codesign", Request: json.RawMessage(goldenCodesignBody)})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := doPost(t, f.gw.URL+"/v1/jobs", string(submit))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", resp.StatusCode, body)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("submit response: %v\n%s", err, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State == "running" {
		if time.Now().After(deadline) {
			t.Fatalf("codesign job never finished: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
		_, body = f.get(t, "/v1/jobs/"+st.ID)
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != "done" {
		t.Fatalf("codesign job state %q: %s", st.State, body)
	}
	resp, got = f.get(t, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(wantCodesign, got) {
		t.Fatalf("gateway job result deviates from the committed golden.\ngot:\n%s\nwant:\n%s", got, wantCodesign)
	}
}
