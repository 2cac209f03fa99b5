package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTestJournal(t *testing.T, dir string) (*Journal, []Intent) {
	t.Helper()
	j, intents, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, intents
}

func intentIDs(intents []Intent) []string {
	ids := make([]string, len(intents))
	for i, in := range intents {
		ids[i] = in.ID
	}
	return ids
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, intents := openTestJournal(t, dir)
	if len(intents) != 0 {
		t.Fatalf("fresh journal recovered %d intents, want 0", len(intents))
	}
	req := json.RawMessage(`{"plant":"dc-servo","period":0.006}`)
	if err := j.Begin(Intent{ID: "a", Kind: "analyze", Key: testKey("a"), Request: req}); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(Intent{ID: "b", Kind: "codesign", Key: testKey("b"), Request: req}); err != nil {
		t.Fatal(err)
	}
	if err := j.End("a"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, intents := openTestJournal(t, dir)
	defer j2.Close()
	if len(intents) != 1 || intents[0].ID != "b" {
		t.Fatalf("recovered %v, want exactly [b]", intentIDs(intents))
	}
	in := intents[0]
	if in.Kind != "codesign" || in.Key != testKey("b") || !bytes.Equal(in.Request, req) {
		t.Fatalf("intent round-trip mangled: %+v", in)
	}
}

// TestJournalReplayIdempotent is the double-recovery no-op contract:
// replaying the same directory repeatedly — without resolving the
// intents — yields the same live set every time, because compaction
// rewrites exactly the live intents.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("job-%d", i)
		if err := j.Begin(Intent{ID: id, Kind: "analyze", Key: testKey(id)}); err != nil {
			t.Fatal(err)
		}
	}
	j.End("job-1")
	j.Close()

	want := []string{"job-0", "job-2"}
	for round := 0; round < 3; round++ {
		j, intents := openTestJournal(t, dir)
		got := intentIDs(intents)
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("recovery round %d: got %v, want %v", round, got, want)
		}
		j.Close()
	}
	// Resolving the intents ends the loop: the next recovery is empty.
	j, intents := openTestJournal(t, dir)
	for _, in := range intents {
		j.End(in.ID)
	}
	j.Close()
	j, intents = openTestJournal(t, dir)
	defer j.Close()
	if len(intents) != 0 {
		t.Fatalf("after resolving all intents, recovery returned %v", intentIDs(intents))
	}
}

// TestJournalTornTail writes a journal whose final append was torn by a
// crash (no newline terminator): the frontier line must be skipped and
// every line before it must replay intact.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	j.Begin(Intent{ID: "whole", Kind: "analyze", Key: testKey("whole")})
	j.Close()

	path := filepath.Join(dir, JournalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Half a begin record, mid-crash: no trailing newline.
	if _, err := f.WriteString(`{"schema":1,"op":"begin","id":"torn","ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, intents := openTestJournal(t, dir)
	defer j2.Close()
	if got := intentIDs(intents); len(got) != 1 || got[0] != "whole" {
		t.Fatalf("recovered %v, want [whole] (torn frontier skipped)", got)
	}
}

// TestJournalDamagedLines checks the replay skip rules one by one:
// unparseable JSON, wrong schema, empty ID, bad key hex, duplicate
// begin, end without begin — each is ignored without poisoning its
// neighbors.
func TestJournalDamagedLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalName)
	good := func(id string) string {
		return fmt.Sprintf(`{"schema":1,"op":"begin","id":%q,"kind":"analyze","key":%q}`, id, testKey(id).String())
	}
	lines := []string{
		good("keep-1"),
		`not json at all`,
		`{"schema":99,"op":"begin","id":"wrong-schema","key":"00"}`,
		`{"schema":1,"op":"begin","id":"","key":"00"}`,
		`{"schema":1,"op":"begin","id":"bad-key","key":"zzzz"}`,
		`{"schema":1,"op":"begin","id":"short-key","key":"0011"}`,
		good("keep-1"), // duplicate begin: first wins, not a second intent
		`{"schema":1,"op":"end","id":"never-began"}`,
		good("keep-2"),
	}
	if err := os.WriteFile(path, []byte(join(lines)), 0o644); err != nil {
		t.Fatal(err)
	}
	j, intents := openTestJournal(t, dir)
	defer j.Close()
	got := intentIDs(intents)
	if len(got) != 2 || got[0] != "keep-1" || got[1] != "keep-2" {
		t.Fatalf("recovered %v, want [keep-1 keep-2]", got)
	}
}

func join(lines []string) string {
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestJournalCompaction verifies OpenJournal bounds the file: after many
// begin/end cycles the journal must shrink back to just the live set.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("churn-%d", i)
		j.Begin(Intent{ID: id, Kind: "analyze", Key: testKey(id)})
		j.End(id)
	}
	j.Begin(Intent{ID: "live", Kind: "analyze", Key: testKey("live")})
	j.Close()

	before, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	j2, intents := openTestJournal(t, dir)
	j2.Close()
	if got := intentIDs(intents); len(got) != 1 || got[0] != "live" {
		t.Fatalf("recovered %v, want [live]", got)
	}
	after, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
}

func TestJournalNilIsDisabled(t *testing.T) {
	var j *Journal
	if err := j.Begin(Intent{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.End("x"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Enabled {
		t.Fatal("nil journal must report disabled")
	}
}

// TestEngineJournalsCrashFrontier simulates the crash the journal
// exists for: a job begins, its runner never finishes, and the process
// "dies" (we simply reopen the directory without ending the job). The
// unmatched begin must surface as an intent carrying the original
// request bytes.
func TestEngineJournalsCrashFrontier(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	e := NewEngine(8, j)
	raw := []byte(`{"plant":"dc-servo","period":0.006}`)
	block := make(chan struct{})
	jb, err := e.Submit("analyze", testKey("crash"), raw, func(ctx context.Context, emit func(Event)) ([]byte, bool, *ErrorInfo) {
		<-block
		return []byte(`{}`), false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no End is written. (Close only flushes; the begin stays.)
	j.Close()

	j2, intents := openTestJournal(t, dir)
	defer j2.Close()
	if len(intents) != 1 {
		t.Fatalf("recovered %d intents, want 1", len(intents))
	}
	in := intents[0]
	if in.ID != jb.ID || in.Kind != "analyze" || !bytes.Equal(in.Request, raw) {
		t.Fatalf("intent %+v does not match the submitted job %s", in, jb.ID)
	}
	close(block)
	waitTerminal(t, jb)
}

// TestEngineRecoverTwoWays drives Recover through its two outcomes:
// resubmit → re-run under the original ID, no resubmit → typed
// interrupted.
func TestEngineRecoverTwoWays(t *testing.T) {
	t.Run("resubmit re-runs under the original id", func(t *testing.T) {
		e := NewEngine(8, nil)
		raw := []byte(`{"n":7}`)
		var gotKind string
		var gotRaw []byte
		e.Recover([]Intent{{ID: "r2", Kind: "codesign", Key: testKey("rerun"), Request: raw}}, true,
			func(kind string, req []byte) (Runner, error) {
				gotKind, gotRaw = kind, req
				return immediateRunner([]byte(`{"redone":true}`)), nil
			})
		jb, ok := e.Get("r2")
		if !ok {
			t.Fatal("recovered job not registered")
		}
		waitTerminal(t, jb)
		if _, state, _, _ := jb.Result(); state != StateDone {
			t.Fatalf("state=%s, want done", state)
		}
		if gotKind != "codesign" || !bytes.Equal(gotRaw, raw) {
			t.Fatalf("prepare saw (%q, %q), want the journaled kind and request", gotKind, gotRaw)
		}
	})
	t.Run("interrupt policy parks the job as interrupted", func(t *testing.T) {
		e := NewEngine(8, nil)
		e.Recover([]Intent{{ID: "r3", Kind: "analyze", Key: testKey("park")}}, false, nil)
		jb, ok := e.Get("r3")
		if !ok {
			t.Fatal("recovered job not registered")
		}
		waitTerminal(t, jb)
		_, state, fail, _ := jb.Result()
		if state != StateInterrupted {
			t.Fatalf("state=%s, want interrupted", state)
		}
		if fail == nil || fail.Code != "interrupted" {
			t.Fatalf("error info = %+v, want code interrupted", fail)
		}
		st := e.Stats()
		if st.Interrupted != 1 || st.Recovered != 1 {
			t.Fatalf("stats = %+v, want interrupted=1 recovered=1", st)
		}
	})
}

// TestJournalConcurrentAppends is the -race hammer: Begin/End/Stats
// from many goroutines at once must not race or corrupt the file.
func TestJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				j.Begin(Intent{ID: id, Kind: "analyze", Key: testKey(id)})
				if i%2 == 0 {
					j.End(id)
				}
				j.Stats()
			}
		}(g)
	}
	wg.Wait()
	j.Close()
	j2, intents := openTestJournal(t, dir)
	defer j2.Close()
	// Per goroutine: 25 begins, the 13 even-i ones ended → 12 live.
	if len(intents) != 8*12 {
		t.Fatalf("recovered %d intents, want %d", len(intents), 8*12)
	}
}
