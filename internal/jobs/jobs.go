package jobs

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// State is a job's lifecycle phase. The FSM is tiny and strict:
//
//	running → done | failed | canceled | interrupted
//
// done/failed/canceled/interrupted are terminal. Every job starts
// running, including one its runner will answer from a cache.
// Interrupted is reached only through crash recovery: a journaled job
// the restarted process could not (or was told not to) re-run surfaces
// in this state instead of vanishing.
type State string

const (
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCanceled    State = "canceled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateRunning }

// Runner executes one job's computation. It receives the job's context
// (canceled by DELETE or drain — the service wires it into campaign
// abort) and an emit function for typed progress events; it returns
// the canonical result bytes and whether they came from a cache, or an
// already-classified failure. Runners run on the engine's goroutines
// but all heavy work is admitted through the service's own pool — the
// engine imposes no second concurrency limit.
type Runner func(ctx context.Context, emit func(Event)) (result []byte, cacheHit bool, fail *ErrorInfo)

// Submission errors.
var (
	ErrDraining     = errors.New("jobs: engine is draining")
	ErrRegistryFull = errors.New("jobs: job registry full")
)

// DefaultMaxJobs bounds how many jobs the registry tracks; beyond it
// the oldest finished jobs are forgotten (only the id-addressed handle
// goes away, not any result the runner's caches hold).
const DefaultMaxJobs = 256

// Job is one tracked computation. All fields behind mu; use the
// accessor methods.
type Job struct {
	ID   string
	Kind string
	Key  Key

	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	canceled bool // DELETE arrived; a failing runner becomes "canceled"
	created  time.Time
	finished time.Time

	// Progress is coalesced out of the event log: emits of type
	// "progress" update these fields instead of appending, so a
	// long campaign costs O(1) memory and a late subscriber gets one
	// fresh progress line, not ten thousand stale ones.
	done, total int
	progressSeq uint64

	events    []Event // append-only; never mutated in place
	sawResult bool    // a result-type event was emitted (batch terminator)
	result    []byte
	errInfo   *ErrorInfo

	updated  chan struct{} // closed on every change; finishCh once terminal
	finishCh chan struct{} // closed once, on reaching a terminal state
}

// Status is the JSON shape of GET /v1/jobs/{id}.
type Status struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Key        string     `json:"key"`
	State      State      `json:"state"`
	Done       int        `json:"done,omitempty"`
	Total      int        `json:"total,omitempty"`
	CreatedAt  string     `json:"created_at"`
	FinishedAt string     `json:"finished_at,omitempty"`
	Error      *ErrorInfo `json:"error,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		Kind:      j.Kind,
		Key:       j.Key.String(),
		State:     j.state,
		Done:      j.done,
		Total:     j.total,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Error:     j.errInfo,
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// Result returns the terminal outcome: the result bytes when done, the
// failure when failed. ok is false while the job is still running.
func (j *Job) Result() (b []byte, state State, fail *ErrorInfo, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, j.state, nil, false
	}
	return j.result, j.state, j.errInfo, true
}

// Finished returns a channel closed when the job reaches a terminal
// state.
func (j *Job) Finished() <-chan struct{} { return j.finishCh }

// WatchState is a subscriber's cursor into a job's event stream.
type WatchState struct {
	cursor      int
	progressSeq uint64
}

// Watch returns the events a subscriber has not seen yet — a fresh
// progress line first if progress advanced, then the appended events —
// plus whether the job is terminal with everything delivered, and a
// channel closed on the next change. Event values are shared snapshots
// and must not be mutated.
func (j *Job) Watch(ws *WatchState) (evs []Event, terminal bool, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.progressSeq > ws.progressSeq && !j.state.Terminal() {
		evs = append(evs, ProgressEvent(j.done, j.total))
		ws.progressSeq = j.progressSeq
	}
	if ws.cursor < len(j.events) {
		evs = append(evs, j.events[ws.cursor:]...)
		ws.cursor = len(j.events)
	}
	return evs, j.state.Terminal() && ws.cursor == len(j.events), j.updated
}

// emit records one event from the runner. Progress coalesces; other
// events append.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // late campaign callback after cancel; drop
	}
	if ev.Type == EventProgress {
		j.done, j.total = ev.Done, ev.Total
		j.progressSeq++
	} else {
		if ev.Type == EventResult {
			j.sawResult = true
		}
		j.events = append(j.events, ev)
	}
	j.broadcastLocked()
}

// broadcastLocked wakes the watchers. A terminal job changes no more:
// it closes finishCh, which stands in for every later watch channel.
func (j *Job) broadcastLocked() {
	close(j.updated)
	if j.state.Terminal() {
		close(j.finishCh)
		j.updated = j.finishCh
		return
	}
	j.updated = make(chan struct{})
}

// finishLocked moves a running job to its terminal state without waking
// its watchers; the caller holds j.mu and broadcasts. With fail nil the
// job is done with result b, and the cache and result events are
// appended unless the runner already emitted its own terminator (the
// batch path emits item lines plus {"type":"result","done":N}).
// Otherwise it is failed — or canceled, when a DELETE (or drain)
// canceled its context and the failure is the abort surfacing.
func (j *Job) finishLocked(b []byte, cacheHit bool, fail *ErrorInfo) {
	j.finished = time.Now()
	switch {
	case fail == nil:
		j.state = StateDone
		j.result = b
		if !j.sawResult {
			j.events = append(j.events, CacheEvent(cacheHit), ResultEvent(bytes.TrimRight(b, "\n")))
		}
		return
	case j.canceled:
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
	j.errInfo = fail
	j.events = append(j.events, ErrorEvent(*fail))
}

// interrupt parks a recovered-but-unrunnable job in the typed
// interrupted terminal state: the crash is surfaced, not swallowed.
func (j *Job) interrupt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateInterrupted
	j.errInfo = &ErrorInfo{
		Code:    "interrupted",
		Message: "job was interrupted by a crash or restart before completing; resubmit the request",
	}
	j.finished = time.Now()
	j.events = append(j.events, ErrorEvent(*j.errInfo))
	j.broadcastLocked()
}

// EngineStats is the /healthz job counters snapshot.
type EngineStats struct {
	Submitted   int64 `json:"submitted"`
	Running     int64 `json:"running"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Interrupted int64 `json:"interrupted"`
	Recovered   int64 `json:"recovered"`
	Tracked     int   `json:"tracked"`
	Draining    bool  `json:"draining"`
}

// Engine tracks jobs and owns the crash-recovery journal. It never
// reads or writes results itself: a job's runner decides where its
// result comes from and where it is kept. Safe for concurrent use.
type Engine struct {
	journal *Journal
	maxJobs int

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for registry eviction
	draining bool

	submitted, running, doneN, failedN, canceledN int64
	interruptedN, recoveredN                      int64

	wg sync.WaitGroup
}

// NewEngine builds an engine over jrn (nil disables crash recovery — a
// hard crash then loses in-flight jobs, as before the journal existed).
// maxJobs bounds the registry; 0 means DefaultMaxJobs.
func NewEngine(maxJobs int, jrn *Journal) *Engine {
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	return &Engine{journal: jrn, maxJobs: maxJobs, jobs: make(map[string]*Job)}
}

// Journal returns the engine's intent journal (nil when disabled).
func (e *Engine) Journal() *Journal { return e.journal }

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("jobs: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func newJob(id, kind string, key Key) *Job {
	return &Job{
		ID:       id,
		Kind:     kind,
		Key:      key,
		state:    StateRunning,
		created:  time.Now(),
		updated:  make(chan struct{}),
		finishCh: make(chan struct{}),
	}
}

// Submit registers and starts one job: it journals the intent and runs
// run on an engine goroutine. raw is the job's canonical request body,
// journaled alongside the intent so a crashed submission can be
// re-enqueued verbatim on the next start.
func (e *Engine) Submit(kind string, key Key, raw []byte, run Runner) (*Job, error) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	if len(e.jobs) >= e.maxJobs && !e.evictLocked() {
		e.mu.Unlock()
		return nil, ErrRegistryFull
	}
	j := newJob(newJobID(), kind, key)
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	e.submitted++
	e.mu.Unlock()

	// The intent must be on disk (fsynced) before the runner starts:
	// from here a hard crash leaves a begin without an end, which the
	// next OpenJournal surfaces for recovery. A failing journal append
	// degrades crash recovery only — the job still runs.
	_ = e.journal.Begin(Intent{ID: j.ID, Kind: kind, Key: key, Request: raw})
	e.start(j, run)
	return j, nil
}

// start launches j's runner on an engine goroutine, counts and then
// publishes the job's terminal state, and journals the end record.
func (e *Engine) start(j *Job, run Runner) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	e.mu.Lock()
	e.running++
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer cancel()
		b, hit, fail := run(ctx, j.emit)
		// The terminal state is counted before the broadcast lets a
		// watcher or /v1/jobs/{id}/result see it, so /healthz never lags
		// a result a client already holds.
		e.mu.Lock()
		e.running--
		j.mu.Lock()
		if !j.state.Terminal() {
			j.finishLocked(b, hit, fail)
			switch j.state {
			case StateDone:
				e.doneN++
			case StateFailed:
				e.failedN++
			case StateCanceled:
				e.canceledN++
			}
			j.broadcastLocked()
		}
		j.cancel = nil // the context is done; a finished job need not pin it
		j.mu.Unlock()
		e.mu.Unlock()
		// The end record still follows the runner's return: ending the
		// intent any earlier would let a crash drop an accepted job.
		_ = e.journal.End(j.ID)
	}()
}

// Recover resolves the journal's live intents — jobs that were accepted
// but not terminal when the previous process died. Call once at
// startup, before the engine takes traffic. Each intent has one of two
// outcomes, so accepted work is never silently dropped:
//
//  1. resubmit is true and prepare can rebuild a runner from the
//     journaled request: the job re-runs under its original ID. A
//     runner whose result was already kept (the crash came after it)
//     answers from there without recomputing.
//  2. Otherwise the job surfaces as the typed `interrupted` terminal
//     state.
func (e *Engine) Recover(intents []Intent, resubmit bool, prepare func(kind string, raw []byte) (Runner, error)) {
	for _, in := range intents {
		e.mu.Lock()
		if _, dup := e.jobs[in.ID]; dup {
			e.mu.Unlock()
			continue
		}
		for len(e.jobs) >= e.maxJobs && e.evictLocked() {
		}
		j := newJob(in.ID, in.Kind, in.Key)
		e.jobs[j.ID] = j
		e.order = append(e.order, j.ID)
		e.submitted++
		e.recoveredN++
		e.mu.Unlock()

		if resubmit && prepare != nil {
			if run, err := prepare(in.Kind, in.Request); err == nil {
				e.start(j, run)
				continue
			}
		}
		j.interrupt()
		e.mu.Lock()
		e.interruptedN++
		e.mu.Unlock()
		_ = e.journal.End(j.ID)
	}
}

// evictLocked forgets the oldest finished job; reports false when every
// tracked job is still running.
func (e *Engine) evictLocked() bool {
	for i, id := range e.order {
		j, ok := e.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			delete(e.jobs, id)
			e.order = append(e.order[:i], e.order[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a running job (a no-op on terminal
// ones) and reports whether the id exists. The job's context cancels,
// which the service plumbs into campaign abort; the runner's failure
// then lands the job in the canceled state.
func (e *Engine) Cancel(id string) (*Job, bool) {
	j, ok := e.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	if !terminal {
		j.canceled = true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if !terminal && cancel != nil {
		cancel()
	}
	return j, true
}

// Drain stops accepting submissions and waits for running jobs. If ctx
// expires first, the remaining jobs are canceled and waited out (their
// campaigns abort promptly). Always returns with no jobs running and
// the journal closed — a drained process leaves no live intents behind
// except for jobs it had to cancel, whose end records still land
// because cancellation drives them to a terminal state first.
func (e *Engine) Drain(ctx context.Context) {
	e.mu.Lock()
	e.draining = true
	ids := make([]string, 0, len(e.jobs))
	for id := range e.jobs {
		ids = append(ids, id)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() { e.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		for _, id := range ids {
			e.Cancel(id)
		}
		<-done
	}
	_ = e.journal.Close()
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Submitted:   e.submitted,
		Running:     e.running,
		Done:        e.doneN,
		Failed:      e.failedN,
		Canceled:    e.canceledN,
		Interrupted: e.interruptedN,
		Recovered:   e.recoveredN,
		Tracked:     len(e.jobs),
		Draining:    e.draining,
	}
}
