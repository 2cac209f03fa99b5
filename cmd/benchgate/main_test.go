package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseKeepsEverySampleAndStripsSuffix(t *testing.T) {
	in := `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkFig2Point-4   	     226	   5318638 ns/op
BenchmarkFig2Point-4   	     240	   5100000 ns/op	 123 B/op	 4 allocs/op
BenchmarkAnalyzeBatch64 	       3	  11307622 ns/op	      5678 items/s
PASS
`
	got := map[string][]float64{"Fig2Point": {5200000}}
	if err := parse(strings.NewReader(in), got); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"Fig2Point":      {5200000, 5318638, 5100000},
		"AnalyzeBatch64": {11307622},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	got := map[string][]float64{}
	if err := parse(strings.NewReader("no benchmarks here\n"), got); err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// paired returns ten pairs of samples around 1000 ns/op: the change runs
// at ratio× the parent in the first `slower` pairs and 5 % faster in the
// rest.
func paired(ratio float64, slower int) (parent, change []float64) {
	for i := 0; i < pairs; i++ {
		p := 1000 + 10*float64(i)
		c := 0.95 * p
		if i < slower {
			c = ratio * p
		}
		parent, change = append(parent, p), append(change, c)
	}
	return parent, change
}

func TestDecide(t *testing.T) {
	slow30p, slow30c := paired(1.30, 10)
	slow10p, slow10c := paired(1.10, 10)
	slow40p, slow40c := paired(1.40, 8)
	tests := []struct {
		name           string
		parent, change map[string][]float64
		fail           bool
		report         string
	}{
		{
			name:   "slower in 10 of 10 pairs at 1.30x fails",
			parent: map[string][]float64{"Fig2Point": slow30p},
			change: map[string][]float64{"Fig2Point": slow30c},
			fail:   true,
			report: "FAIL Fig2Point",
		},
		{
			name:   "slower in 10 of 10 pairs at 1.10x passes",
			parent: map[string][]float64{"Fig2Point": slow10p},
			change: map[string][]float64{"Fig2Point": slow10c},
			report: "ok   Fig2Point",
		},
		{
			name:   "slower in 8 of 10 pairs at 1.40x passes",
			parent: map[string][]float64{"Fig2Point": slow40p},
			change: map[string][]float64{"Fig2Point": slow40c},
			report: "slower in 8 of 10 pairs",
		},
		{
			name:   "gated in the parent but missing from the change fails",
			parent: map[string][]float64{"Fig2Point": slow10p, "CosimLoop": slow10p},
			change: map[string][]float64{"Fig2Point": slow10p},
			fail:   true,
			report: "FAIL CosimLoop",
		},
		{
			name:   "only in the change is new and not gated",
			parent: map[string][]float64{"Fig2Point": slow10p},
			change: map[string][]float64{"Fig2Point": slow10p, "AnalyzeHit": slow30c},
			report: "new  AnalyzeHit",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			lines, failed := decide(tc.parent, tc.change)
			report := strings.Join(lines, "\n")
			if failed != tc.fail {
				t.Errorf("failed = %v, want %v\n%s", failed, tc.fail, report)
			}
			if !strings.Contains(report, tc.report) {
				t.Errorf("report lacks %q:\n%s", tc.report, report)
			}
		})
	}
}

// TestRunCanceledMidBuildRemovesWorktree cancels run while it builds the
// test binaries of a throwaway repository, as a Ctrl-C or SIGTERM does,
// and checks that the temporary worktree and directory are gone.
func TestRunCanceledMidBuildRemovesWorktree(t *testing.T) {
	for _, tool := range []string{"git", "go"} {
		if _, err := exec.LookPath(tool); err != nil {
			t.Skipf("%s is not on PATH", tool)
		}
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	t.Setenv("GOTMPDIR", "") // the go command's work directories land in tmp too
	repo := t.TempDir()
	files := map[string]string{
		"go.mod": "module throwaway\n\ngo 1.21\n",
		// The benchmark never finishes on its own, so only the cancel
		// can end the run.
		"x_test.go": "package throwaway\n\nimport (\n\t\"testing\"\n\t\"time\"\n)\n\nfunc BenchmarkFig2Point(b *testing.B) { time.Sleep(time.Hour) }\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(repo, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "init")
	worktrees := func() int { return strings.Count(git("worktree", "list", "--porcelain"), "worktree ") }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := run(ctx, repo, "HEAD")
		done <- err
	}()
	// Once the worktree is registered and the go command has made its
	// work directory, run is building.
	building := func() bool {
		dirs, _ := filepath.Glob(filepath.Join(tmp, "go-build*"))
		return len(dirs) > 0 && worktrees() == 2
	}
	for deadline := time.Now().Add(time.Minute); !building(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("run never started building")
		}
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a canceled run reported no error")
		}
	case <-time.After(time.Minute):
		t.Fatal("a canceled run did not return")
	}
	if n := worktrees(); n != 1 {
		t.Fatalf("git worktree list shows %d trees after the canceled run, want only the main one:\n%s", n, git("worktree", "list"))
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "benchgate-*")); len(left) != 0 {
		t.Fatalf("temporary directories left behind: %v", left)
	}
}
