package faultinject_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctrlsched/internal/faultinject"
	"ctrlsched/internal/gateway"
	"ctrlsched/internal/service"
)

// The chaos suite drives a real 2-replica fleet — gateway, replicas,
// durable stores, journals — through seeded fault plans biting at all
// three seams at once, and asserts the system's core promises hold
// under every schedule:
//
//   - No partial or corrupt result is ever served: a 200 whose body we
//     can read completely is byte-identical to an uninterrupted run's.
//   - Every readable non-200 answer is a well-formed error envelope.
//   - Async jobs always reach a terminal state; a done job's bytes are
//     byte-identical to the synchronous answer.
//   - Admission accounting returns to zero once traffic stops.
//   - The whole run is deterministic: replaying a plan against a fresh
//     fleet reproduces the identical outcome sequence.
//
// Requests are driven sequentially and health probes / side-channel
// polls are exempt from fault decisions (non-/v1/ paths), so a plan's
// op indices land on the same operations every run.

// chaosStep is one scripted request. Job steps submit through the
// gateway, then wait out the job via the unfaulted side channel.
type chaosStep struct {
	name string
	path string // sync POST target, or submit path for jobs
	body string
	job  bool
	// refPath/refBody is the synchronous request whose clean bytes a
	// done job must reproduce (job steps only; sync steps use path/body).
	refPath string
	refBody string
}

const chaosTasksBody = `{"tasks":[{"bcet":0.05,"wcet":0.1,"period":1}]}`
const chaosCodesignBody = `{"loops":[{"plant":"dc-servo","bcet":0.00105,"wcet":0.0015,"periods":[0.006,0.008,0.012]}],"seed":7}`

// chaosScript is the fixed workload every plan replays: sync analyze
// (plant, tasks, a failing plant), a single-plant batch (a scatter of
// one sub-request to its owner, then the whole batch through the proxy
// if that fails), codesign cold and warm, and two async jobs that
// exercise the store and journal seams. The script holds no batch with
// two owners: their sub-requests run in parallel and would race for
// fault indices, so a replay could not reproduce the schedule.
func chaosScript() []chaosStep {
	singlePlantBatch := `{"items":[{"plant":"dc-servo","period":0.006},{"plant":"dc-servo","period":0.008},{"plant":"dc-servo","period":0.01}]}`
	return []chaosStep{
		{name: "analyze-plant", path: "/v1/analyze", body: `{"plant":"dc-servo","period":0.006}`},
		{name: "analyze-tasks", path: "/v1/analyze", body: chaosTasksBody},
		{name: "analyze-bad", path: "/v1/analyze", body: `{"plant":"warp-core","period":0.01}`},
		{name: "batch-single-plant", path: "/v1/analyze/batch", body: singlePlantBatch},
		{name: "codesign-cold", path: "/v1/codesign", body: chaosCodesignBody},
		{name: "job-analyze", path: "/v1/jobs", job: true,
			body:    `{"kind":"analyze","request":` + chaosTasksBody + `}`,
			refPath: "/v1/analyze", refBody: chaosTasksBody},
		{name: "analyze-pendulum", path: "/v1/analyze", body: `{"plant":"inverted-pendulum","period":0.008}`},
		{name: "job-codesign", path: "/v1/jobs", job: true,
			body:    `{"kind":"codesign","request":` + chaosCodesignBody + `}`,
			refPath: "/v1/codesign", refBody: chaosCodesignBody},
		{name: "codesign-warm", path: "/v1/codesign", body: chaosCodesignBody},
		{name: "analyze-plant-again", path: "/v1/analyze", body: `{"plant":"dc-servo","period":0.006}`},
	}
}

// chaosFleet is two faulted replicas behind a faulted gateway, each
// replica also exposed through an unfaulted side channel the driver
// uses for job polling (side traffic must not consume fault indices).
type chaosFleet struct {
	g    *gateway.Gateway
	gw   *httptest.Server
	side []*httptest.Server
}

func newChaosFleet(t *testing.T, plan *faultinject.Plan) *chaosFleet {
	t.Helper()
	f := &chaosFleet{}
	urls := make([]string, 2)
	for i := range urls {
		svc := service.New(service.Config{
			Workers: 2, MaxConcurrent: 4, CacheEntries: 64,
			JobsDir: t.TempDir(),
			StoreFS: faultinject.FS(nil, plan),
		})
		h := svc.Handler()
		faulted := httptest.NewServer(faultinject.Middleware(h, plan))
		t.Cleanup(faulted.Close)
		side := httptest.NewServer(h)
		t.Cleanup(side.Close)
		f.side = append(f.side, side)
		urls[i] = faulted.URL
	}
	g, err := gateway.New(gateway.Options{
		Replicas:    urls,
		HealthEvery: 50 * time.Millisecond,
		// Cooldown of 1ns: every manual CheckReplicas round may probe,
		// so breaker recovery is driven by the scripted probe points,
		// not wall-clock — a deterministic schedule stays deterministic.
		BreakerThreshold: 2,
		BreakerCooldown:  time.Nanosecond,
		// A huge budget with no refill: retries are never denied and
		// the token count cannot depend on elapsed time.
		RetryTokens:      1 << 20,
		RetryRefill:      -1,
		DeadlineAnalyze:  2 * time.Second,
		DeadlineCodesign: 5 * time.Second,
		DeadlineJobs:     2 * time.Second,
		Client:           &http.Client{Transport: faultinject.Transport(nil, plan)},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckReplicas(context.Background())
	f.g = g
	f.gw = httptest.NewServer(g.Handler())
	t.Cleanup(f.gw.Close)
	return f
}

// settle waits until every replica's job engine is idle and its journal
// counters stop moving, so a job goroutine's trailing store/journal
// writes cannot leak fault indices into the next scripted step.
func (f *chaosFleet) settle(t *testing.T) {
	t.Helper()
	type snap struct {
		running int64
		appends int64
	}
	read := func(side *httptest.Server) snap {
		resp, err := http.Get(side.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc struct {
			Jobs struct {
				Running int64 `json:"running"`
			} `json:"jobs"`
			Journal struct {
				Appends   int64 `json:"appends"`
				AppendErr int64 `json:"append_errors"`
			} `json:"journal"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return snap{running: doc.Jobs.Running, appends: doc.Journal.Appends + doc.Journal.AppendErr}
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, side := range f.side {
		prev := read(side)
		for {
			time.Sleep(20 * time.Millisecond)
			cur := read(side)
			if cur.running == 0 && cur == prev {
				break
			}
			prev = cur
			if time.Now().After(deadline) {
				t.Fatalf("fleet never settled: %+v", cur)
			}
		}
	}
}

// reference computes the clean, uninterrupted answer for each script
// step against a faultless single service.
func chaosReference(t *testing.T, script []chaosStep) map[string]struct {
	status int
	body   []byte
} {
	t.Helper()
	ref := httptest.NewServer(service.New(service.Config{Workers: 2}).Handler())
	defer ref.Close()
	out := make(map[string]struct {
		status int
		body   []byte
	})
	for _, st := range script {
		path, body := st.path, st.body
		if st.job {
			path, body = st.refPath, st.refBody
		}
		resp, err := http.Post(ref.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out[st.name] = struct {
			status int
			body   []byte
		}{resp.StatusCode, b}
	}
	return out
}

// assertEnvelope requires a readable non-200 body to be the standard
// error envelope — never a half-written result.
func assertEnvelope(t *testing.T, step string, status int, body []byte) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		t.Fatalf("%s: status %d with a non-envelope body: %q", step, status, body)
	}
}

// runChaos replays the script once against a fresh fleet under plan and
// returns the outcome sequence: one stable string per step.
func runChaos(t *testing.T, plan *faultinject.Plan, script []chaosStep, ref map[string]struct {
	status int
	body   []byte
}) []string {
	t.Helper()
	f := newChaosFleet(t, plan)
	var outcomes []string
	for _, st := range script {
		f.g.CheckReplicas(context.Background())
		resp, err := http.Post(f.gw.URL+st.path, "application/json", strings.NewReader(st.body))
		if err != nil {
			outcomes = append(outcomes, st.name+":transport_error")
			if st.job {
				f.settle(t) // the submit may still have been accepted
			}
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			// A mid-body cut: the client cannot mistake this for a
			// complete answer, which is exactly the guarantee.
			outcomes = append(outcomes, st.name+":read_error")
			if st.job {
				f.settle(t)
			}
			continue
		}
		if !st.job {
			switch {
			case resp.StatusCode == http.StatusOK:
				want := ref[st.name]
				if !bytes.Equal(body, want.body) {
					t.Fatalf("%s: 200 body deviates from the uninterrupted run:\n got %s\nwant %s", st.name, body, want.body)
				}
			case resp.StatusCode == ref[st.name].status:
				// The organic non-200 (e.g. the bad-plant 400) must be
				// byte-identical too.
				if !bytes.Equal(body, ref[st.name].body) {
					t.Fatalf("%s: organic error bytes deviate:\n got %s\nwant %s", st.name, body, ref[st.name].body)
				}
			default:
				assertEnvelope(t, st.name, resp.StatusCode, body)
			}
			outcomes = append(outcomes, fmt.Sprintf("%s:%d", st.name, resp.StatusCode))
			continue
		}

		// Job step: on 202, ride the job to terminal via the side
		// channel and hold a done job's bytes to the reference.
		if resp.StatusCode != http.StatusAccepted {
			assertEnvelope(t, st.name, resp.StatusCode, body)
			outcomes = append(outcomes, fmt.Sprintf("%s:%d", st.name, resp.StatusCode))
			f.settle(t)
			continue
		}
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.ID == "" {
			t.Fatalf("%s: 202 without a job id: %q", st.name, body)
		}
		state, owner := f.awaitJob(t, doc.ID)
		if state == "done" {
			resultResp, err := http.Get(f.side[owner].URL + "/v1/jobs/" + doc.ID + "/result")
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resultResp.Body)
			resultResp.Body.Close()
			if resultResp.StatusCode != http.StatusOK {
				t.Fatalf("%s: done job's result answered %d: %s", st.name, resultResp.StatusCode, rb)
			}
			if !bytes.Equal(rb, ref[st.name].body) {
				t.Fatalf("%s: job result deviates from the synchronous answer:\n got %s\nwant %s", st.name, rb, ref[st.name].body)
			}
		}
		outcomes = append(outcomes, fmt.Sprintf("%s:202:%s", st.name, state))
		f.settle(t)
	}

	// Traffic has stopped: the gateway's admission accounting must be
	// back to zero — nothing leaked a slot or a queue place.
	resp, err := http.Get(f.gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Admission struct {
			Running int `json:"running"`
			Queued  int `json:"queued"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Admission.Running != 0 || health.Admission.Queued != 0 {
		t.Fatalf("admission did not return to zero: %+v", health.Admission)
	}
	return outcomes
}

// awaitJob polls both side channels until the job turns terminal,
// returning its final state and the owning replica's index.
func (f *chaosFleet) awaitJob(t *testing.T, id string) (state string, owner int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i, side := range f.side {
			resp, err := http.Get(side.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				continue
			}
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(b, &st); err != nil {
				t.Fatal(err)
			}
			if st.State != "running" {
				return st.State, i
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached a terminal state — the invariant the journal exists for", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosPlans are the seeded fault schedules the suite replays: each
// leans on a different seam so a regression in one layer's handling
// cannot hide behind another's.
var chaosPlans = []struct {
	name  string
	seed  int64
	specs map[faultinject.Op]faultinject.Spec
}{
	{"zero", 1, nil},
	{"transport-heavy", 101, map[faultinject.Op]faultinject.Spec{
		faultinject.OpTransport: {Error: 150, Torn: 100, Slow: 100, SlowFor: 20 * time.Millisecond},
	}},
	{"replica-503-burst", 202, map[faultinject.Op]faultinject.Spec{
		faultinject.OpHandler: {Error: 300},
	}},
	{"hang-vs-deadline", 303, map[faultinject.Op]faultinject.Spec{
		faultinject.OpTransport: {Hang: 80},
		faultinject.OpHandler:   {Hang: 80},
	}},
	{"store-heavy", 404, map[faultinject.Op]faultinject.Spec{
		faultinject.OpFSWrite:  {Error: 150, Torn: 150},
		faultinject.OpFSSync:   {Error: 100},
		faultinject.OpFSRename: {Error: 50},
		faultinject.OpAppend:   {Error: 100, Torn: 100},
	}},
	{"slow-everything", 505, map[faultinject.Op]faultinject.Spec{
		faultinject.OpTransport: {Slow: 250, SlowFor: 15 * time.Millisecond},
		faultinject.OpHandler:   {Slow: 250, SlowFor: 15 * time.Millisecond},
		faultinject.OpFSSync:    {Slow: 250, SlowFor: 5 * time.Millisecond},
	}},
	{"mixed", 606, map[faultinject.Op]faultinject.Spec{
		faultinject.OpTransport: {Error: 80, Torn: 50, Slow: 50, SlowFor: 10 * time.Millisecond},
		faultinject.OpHandler:   {Error: 80, Hang: 30},
		faultinject.OpFSWrite:   {Error: 80, Torn: 80},
		faultinject.OpAppend:    {Error: 80, Torn: 80},
	}},
}

// TestChaos replays every plan twice against fresh fleets and requires
// the two outcome sequences to match exactly — determinism is asserted,
// not assumed. The zero plan additionally pins the fault-free contract:
// all answers identical to a faultless single replica, zero injections.
func TestChaos(t *testing.T) {
	script := chaosScript()
	ref := chaosReference(t, script)
	for _, tc := range chaosPlans {
		t.Run(tc.name, func(t *testing.T) {
			first := runChaos(t, faultinject.New(tc.seed, tc.specs), script, ref)
			plan2 := faultinject.New(tc.seed, tc.specs)
			second := runChaos(t, plan2, script, ref)
			if len(first) != len(second) {
				t.Fatalf("replay produced %d outcomes, first run %d", len(second), len(first))
			}
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("outcome %d diverged between identical runs:\n first: %s\nsecond: %s", i, first[i], second[i])
				}
			}
			if tc.name == "zero" {
				if plan2.Total() != 0 {
					t.Fatalf("zero plan injected faults: %s", plan2.Summary())
				}
				for i, out := range first {
					want := fmt.Sprintf("%s:%d", script[i].name, ref[script[i].name].status)
					if script[i].job {
						want = script[i].name + ":202:done"
					}
					if out != want {
						t.Fatalf("fault-free outcome %d = %s, want %s", i, out, want)
					}
				}
			} else {
				t.Logf("plan %s (seed %d): %s", tc.name, tc.seed, plan2.Summary())
				t.Logf("outcomes: %s", strings.Join(first, " "))
			}
		})
	}
}
