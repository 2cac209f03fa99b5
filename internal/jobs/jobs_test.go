package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// immediateRunner returns fixed bytes without blocking.
func immediateRunner(b []byte) Runner {
	return func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		return b, false, nil
	}
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("job never finished")
	}
}

func TestJobDoneFSM(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	body := []byte(`{"v":1}`)
	j, err := e.Submit("analyze", testKey("done"), nil, immediateRunner(body))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	b, state, fail, ok := j.Result()
	if !ok || state != StateDone || fail != nil || string(b) != string(body) {
		t.Fatalf("Result = %q %v %v %v", b, state, fail, ok)
	}
	st := j.Status()
	if st.State != StateDone || st.Kind != "analyze" || st.FinishedAt == "" || st.FromStore {
		t.Fatalf("Status = %+v", st)
	}
	es := e.Stats()
	if es.Submitted != 1 || es.Done != 1 || es.Running != 0 {
		t.Fatalf("Stats = %+v", es)
	}
}

// TestFinishedJobHoldsNoRunState checks that a job the registry keeps
// after it finished no longer pins its run context, that its watch
// channel is its closed finish channel and a watcher sees it terminal,
// and that canceling it is still a harmless no-op.
func TestFinishedJobHoldsNoRunState(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	j, err := e.Submit("analyze", testKey("released"), nil, immediateRunner([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	e.Drain(context.Background()) // waits for the runner goroutine
	j.mu.Lock()
	pinned := j.cancel != nil
	j.mu.Unlock()
	if pinned {
		t.Fatal("finished job still holds its cancel func")
	}
	_, terminal, updated := j.Watch(&WatchState{})
	if updated != j.Finished() {
		t.Fatal("finished job keeps a watch channel of its own")
	}
	select {
	case <-updated:
	default:
		t.Fatal("finished job handed out an open watch channel")
	}
	if !terminal {
		t.Fatal("finished job not reported terminal to a new watcher")
	}
	if got, ok := e.Cancel(j.ID); !ok || got != j {
		t.Fatalf("Cancel(finished) = %v, %v", got, ok)
	}
	if _, state, _, _ := j.Result(); state != StateDone {
		t.Fatalf("state after Cancel = %v, want done", state)
	}
}

func TestJobFailedKeepsClassifiedError(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	info := &ErrorInfo{Code: "bad_request", Message: "loop 0: empty grid"}
	j, err := e.Submit("codesign", testKey("fail"), nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		return nil, false, info
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	_, state, fail, ok := j.Result()
	if !ok || state != StateFailed || fail == nil || fail.Code != "bad_request" {
		t.Fatalf("Result = %v %v %v", state, fail, ok)
	}
	if e.Stats().Failed != 1 {
		t.Fatalf("Stats = %+v", e.Stats())
	}
}

func TestJobCancel(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	started := make(chan struct{})
	j, err := e.Submit("table1", testKey("cancel"), nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		close(started)
		<-ctx.Done()
		return nil, false, &ErrorInfo{Code: "unavailable", Message: "canceled during table1: " + ctx.Err().Error()}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := e.Cancel(j.ID); !ok {
		t.Fatal("Cancel: unknown id")
	}
	waitTerminal(t, j)
	if _, state, _, _ := j.Result(); state != StateCanceled {
		t.Fatalf("state = %v, want canceled", state)
	}
	if e.Stats().Canceled != 1 {
		t.Fatalf("Stats = %+v", e.Stats())
	}
	// Canceling an unknown id reports false; a terminal job is a no-op.
	if _, ok := e.Cancel("nope"); ok {
		t.Fatal("Cancel(nope) found a job")
	}
	if _, ok := e.Cancel(j.ID); !ok {
		t.Fatal("Cancel on terminal job lost the id")
	}
}

func TestJobBornDoneFromStore(t *testing.T) {
	store := mustOpen(t, t.TempDir(), StoreOptions{})
	k := testKey("stored")
	body := []byte(`{"persisted":true}`)
	if err := store.Put(k, "codesign", body); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store, 0, nil)
	ran := false
	j, err := e.Submit("codesign", k, nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		ran = true
		return nil, false, &ErrorInfo{Code: "internal", Message: "should not run"}
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if ran {
		t.Fatal("runner ran despite a stored result")
	}
	b, state, _, ok := j.Result()
	if !ok || state != StateDone || string(b) != string(body) {
		t.Fatalf("Result = %q %v %v", b, state, ok)
	}
	if !j.Status().FromStore {
		t.Fatal("FromStore not reported")
	}
	if e.Stats().FromStore != 1 {
		t.Fatalf("Stats = %+v", e.Stats())
	}
}

// TestJobWatchReplaysAndCoalesces drives the subscriber protocol: a
// late watcher gets one fresh progress line (not the full history),
// item events replay in order, and the stream ends with the terminal
// event set.
func TestJobWatchReplaysAndCoalesces(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	release := make(chan struct{})
	emitted := make(chan struct{})
	j, err := e.Submit("analyze_batch", testKey("watch"), nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		for i := 0; i < 100; i++ {
			emit(ProgressEvent(i+1, 100))
		}
		emit(ItemEvent(0, json.RawMessage(`{"a":1}`), false))
		emit(BatchDoneEvent(1))
		close(emitted)
		<-release
		return []byte(`{"batch":true}`), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-emitted

	var ws WatchState
	evs, terminal, _ := j.Watch(&ws)
	if terminal {
		t.Fatal("terminal before runner returned")
	}
	var progress, items, results int
	for _, ev := range evs {
		switch ev.Type {
		case EventProgress:
			progress++
			if ev.Done != 100 || ev.Total != 100 {
				t.Fatalf("stale progress %d/%d", ev.Done, ev.Total)
			}
		case EventItem:
			items++
			if ev.Index == nil || *ev.Index != 0 {
				t.Fatalf("item event %+v", ev)
			}
		case EventResult:
			results++
			if ev.Done != 1 {
				t.Fatalf("terminator %+v", ev)
			}
		}
	}
	if progress != 1 {
		t.Fatalf("progress lines = %d, want 1 (coalesced)", progress)
	}
	if items != 1 || results != 1 {
		t.Fatalf("items = %d results = %d", items, results)
	}

	close(release)
	waitTerminal(t, j)
	// The batch runner emitted its own terminator, so finishing must not
	// append a second cache/result pair.
	evs, terminal, _ = j.Watch(&ws)
	if !terminal {
		t.Fatal("not terminal after finish")
	}
	for _, ev := range evs {
		if ev.Type == EventResult || ev.Type == EventCache {
			t.Fatalf("duplicate terminator after batch finish: %+v", ev)
		}
	}

	// A brand-new watcher replays everything (coalesced progress included)
	// and lands terminal in one call.
	var ws2 WatchState
	evs, terminal, _ = j.Watch(&ws2)
	if !terminal || len(evs) < 2 {
		t.Fatalf("fresh watch: terminal=%v evs=%d", terminal, len(evs))
	}
}

func TestJobWatchSingleResultAppendsCacheAndResult(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	j, err := e.Submit("analyze", testKey("single"), nil, immediateRunner([]byte(`{"x":1}`+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	var ws WatchState
	evs, terminal, _ := j.Watch(&ws)
	if !terminal || len(evs) != 2 {
		t.Fatalf("watch: terminal=%v evs=%+v", terminal, evs)
	}
	if evs[0].Type != EventCache || evs[1].Type != EventResult {
		t.Fatalf("event order: %+v", evs)
	}
	// The embedded result is trimmed so the stream line stays one line.
	if string(evs[1].Result) != `{"x":1}` {
		t.Fatalf("result payload %q", evs[1].Result)
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine(nil, 0, nil)
	blocked := make(chan struct{})
	j, err := e.Submit("table1", testKey("drain"), nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		close(blocked)
		<-ctx.Done()
		return nil, false, &ErrorInfo{Code: "unavailable", Message: "canceled during table1"}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-blocked

	// An expired context cancels the stragglers and still returns with
	// nothing running.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	e.Drain(ctx)
	if st := e.Stats(); st.Running != 0 || !st.Draining {
		t.Fatalf("post-drain stats %+v", st)
	}
	if _, state, _, _ := j.Result(); state != StateCanceled {
		t.Fatalf("drained job state %v", state)
	}
	if _, err := e.Submit("analyze", testKey("late"), nil, immediateRunner(nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v", err)
	}
}

func TestEngineRegistryEviction(t *testing.T) {
	e := NewEngine(nil, 2, nil)
	j1, _ := e.Submit("analyze", testKey("1"), nil, immediateRunner([]byte("{}")))
	waitTerminal(t, j1)
	j2, _ := e.Submit("analyze", testKey("2"), nil, immediateRunner([]byte("{}")))
	waitTerminal(t, j2)
	j3, err := e.Submit("analyze", testKey("3"), nil, immediateRunner([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j3)
	if _, ok := e.Get(j1.ID); ok {
		t.Fatal("oldest finished job not evicted")
	}
	if _, ok := e.Get(j3.ID); !ok {
		t.Fatal("newest job evicted")
	}

	// Registry full of running jobs refuses new submissions.
	e2 := NewEngine(nil, 1, nil)
	hold := make(chan struct{})
	started := make(chan struct{})
	_, err = e2.Submit("analyze", testKey("hold"), nil, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		close(started)
		<-hold
		return []byte("{}"), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e2.Submit("analyze", testKey("overflow"), nil, immediateRunner(nil)); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("overflow submit err = %v", err)
	}
	close(hold)
}

// TestEventEncoding pins the wire shapes of every event constructor —
// the schema is documented API.
func TestEventEncoding(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{ProgressEvent(128, 50000), `{"type":"progress","done":128,"total":50000}`},
		{CacheEvent(true), `{"type":"cache","status":"hit"}`},
		{CacheEvent(false), `{"type":"cache","status":"miss"}`},
		{ItemEvent(0, json.RawMessage(`{"a":1}`), true), `{"type":"item","status":"hit","index":0,"result":{"a":1}}`},
		{ItemErrorEvent(3, ErrorInfo{Code: "bad_request", Message: "boom"}), `{"type":"item","index":3,"error":{"code":"bad_request","message":"boom"}}`},
		{ResultEvent(json.RawMessage(`{"r":2}`)), `{"type":"result","result":{"r":2}}`},
		{BatchDoneEvent(64), `{"type":"result","done":64}`},
		{ErrorEvent(ErrorInfo{Code: "unavailable", Message: "shed"}), `{"type":"error","error":{"code":"unavailable","message":"shed"}}`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("got  %s\nwant %s", b, tc.want)
		}
	}
}
