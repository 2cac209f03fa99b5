package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ctrlsched/internal/jobs"
)

// These tests pin the restart-durability contract: a job the previous
// process accepted but never finished — its journal holds an unmatched
// begin — must, after restart, either complete with bytes identical to
// what an uninterrupted run would have produced, or surface as the
// typed `interrupted` terminal state. Never a hang, never silent loss,
// never corrupt bytes.

// crashWithIntent simulates a hard crash: a journal in dir holding one
// unresolved begin for the given request, exactly what a process killed
// between accepting the job and persisting its result leaves behind.
func crashWithIntent(t *testing.T, dir, id, kind string, raw []byte) {
	t.Helper()
	throwaway := newTestService()
	key, _, err := throwaway.prepareJob(kind, raw)
	if err != nil {
		t.Fatal(err)
	}
	jrn, _, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Begin(jobs.Intent{ID: id, Kind: kind, Key: jobs.Key(key), Request: raw}); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartResubmitsCrashedJob: default policy. The restarted service
// re-runs the journaled request under its original job ID and the
// result is byte-identical to an uninterrupted synchronous run.
func TestRestartResubmitsCrashedJob(t *testing.T) {
	dir := t.TempDir()
	raw := []byte(analyzeJobBody)
	crashWithIntent(t, dir, "crashed-resubmit", kindAnalyze, raw)

	want, _, err := newTestService().Analyze(context.Background(), raw)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, JobsDir: dir})
	j, ok := s.jobsEng.Get("crashed-resubmit")
	if !ok {
		t.Fatal("recovered job not registered under its original ID")
	}
	waitJob(t, j)
	b, state, fail, ok := j.Result()
	if !ok || state != jobs.StateDone {
		t.Fatalf("recovered job state = %v (fail %v)", state, fail)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("recovered result differs from uninterrupted run:\n%s\n%s", b, want)
	}
	if st := s.jobsEng.Stats(); st.Recovered != 1 {
		t.Fatalf("engine stats recovered = %d, want 1", st.Recovered)
	}

	// Drain ends the job in the journal; a second restart must find
	// nothing to recover — double recovery is a no-op.
	s.Drain(context.Background())
	jrn, intents, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jrn.Close()
	if len(intents) != 0 {
		t.Fatalf("second recovery found %d intents, want 0", len(intents))
	}
}

// TestRestartInterruptPolicy: with -job-recovery=interrupt the crashed
// job parks in the typed interrupted state, and its result endpoint
// answers 409 with code "interrupted".
func TestRestartInterruptPolicy(t *testing.T) {
	dir := t.TempDir()
	crashWithIntent(t, dir, "crashed-park", kindAnalyze, []byte(analyzeJobBody))

	s := New(Config{Workers: 2, JobsDir: dir, RecoverPolicy: RecoverInterrupt})
	j, ok := s.jobsEng.Get("crashed-park")
	if !ok {
		t.Fatal("recovered job not registered")
	}
	waitJob(t, j)
	if _, state, _, _ := j.Result(); state != jobs.StateInterrupted {
		t.Fatalf("state = %v, want interrupted", state)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/crashed-park/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result status = %d, want 409: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "interrupted" {
		t.Fatalf("result body %s, want code interrupted", body)
	}
	if st := s.jobsEng.Stats(); st.Interrupted != 1 {
		t.Fatalf("engine stats interrupted = %d, want 1", st.Interrupted)
	}

	// The interrupted outcome resolves the intent: restart again and
	// nothing is re-recovered.
	s.Drain(context.Background())
	jrn, intents, err := jobs.OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jrn.Close()
	if len(intents) != 0 {
		t.Fatalf("intents after interrupt resolution = %d, want 0", len(intents))
	}
}

// TestRestartStoreHitIsBornDone: the crash happened after the result
// was persisted but before the journal's end record landed. Under the
// default policy the recovered job re-runs, and its run is answered
// from the store; under the interrupt policy the job parks as
// interrupted, and resubmitting the request is answered from the store.
// Either way the bytes are the first life's, the store counts one hit,
// and nothing is recomputed.
func TestRestartStoreHitIsBornDone(t *testing.T) {
	for _, policy := range []string{RecoverResubmit, RecoverInterrupt} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()

			// First life: run the job to completion so the store holds its key.
			s1 := New(Config{Workers: 2, JobsDir: dir})
			j1, err := s1.SubmitJob(kindCodesign, []byte(codesignBody))
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j1)
			want, state, _, _ := j1.Result()
			if state != jobs.StateDone {
				t.Fatalf("first life state %v", state)
			}
			s1.Drain(context.Background())

			// The crash frontier: a begin for the same request that never got
			// its end record.
			crashWithIntent(t, dir, "crashed-after-persist", kindCodesign, []byte(codesignBody))

			s2 := New(Config{Workers: 2, JobsDir: dir, RecoverPolicy: policy})
			j2, ok := s2.jobsEng.Get("crashed-after-persist")
			if !ok {
				t.Fatal("recovered job not registered")
			}
			waitJob(t, j2)
			if policy == RecoverInterrupt {
				if _, state, _, _ := j2.Result(); state != jobs.StateInterrupted {
					t.Fatalf("recovered job state = %v, want interrupted", state)
				}
				if j2, err = s2.SubmitJob(kindCodesign, []byte(codesignBody)); err != nil {
					t.Fatal(err)
				}
				waitJob(t, j2)
			}
			b, state, _, _ := j2.Result()
			if state != jobs.StateDone || !bytes.Equal(b, want) {
				t.Fatalf("store-hit job state=%v, bytes identical=%v", state, bytes.Equal(b, want))
			}
			if hits := s2.store.Stats().Hits; hits != 1 {
				t.Fatalf("result_store.hits = %d, want 1", hits)
			}
			if misses := s2.Stats().CacheMisses; misses != 0 {
				t.Fatalf("stats.cache_misses = %d: the stored result was recomputed", misses)
			}
		})
	}
}

// TestRestartHealthzReportsJournal: /healthz carries the journal
// counters so operators can see recovery happened.
func TestRestartHealthzReportsJournal(t *testing.T) {
	dir := t.TempDir()
	crashWithIntent(t, dir, "crashed-visible", kindAnalyze, []byte(analyzeJobBody))

	s := New(Config{Workers: 2, JobsDir: dir})
	j, _ := s.jobsEng.Get("crashed-visible")
	waitJob(t, j)

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Journal jobs.JournalStats `json:"journal"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Journal.Enabled || doc.Journal.Recovered != 1 {
		t.Fatalf("healthz journal = %+v, want enabled with recovered_intents=1", doc.Journal)
	}
}
