// Command benchgate is the CI bench-regression gate: a same-session A/B
// of the working tree against a git revision, run from the repository
// root:
//
//	go run ./cmd/benchgate HEAD^1
//
// It checks the revision out as a temporary git worktree, builds the root
// package's test binary in both trees, and runs the gated benchmarks for
// ten pairs at one fixed -benchtime, alternating which side runs first.
// A benchmark fails when the working tree is slower in at least nine of
// the ten pairs and its median ns/op is more than 1.25× the revision's,
// or when the revision has it and the working tree does not. A benchmark
// only the working tree has is reported as new and not gated. Timing both
// sides in one session on one host is what lets the gate bind: absolute
// ns/op drifts between hosts, Go releases and even sessions.
//
// A Ctrl-C or SIGTERM stops the run and a closed stdout (say, piped into
// `tail -0`) fails the verdict write; in both cases the temporary
// worktree is still removed before the process exits.
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// gated names the root-package benchmarks the gate runs: the paper's
	// kernels (Algorithm 1, the Table I campaign of one fleet job, the
	// Fig. 2 LQG cost, the Fig. 4 jitter margin), the co-design engine
	// and its co-simulation, and the service's batch, cache-hit,
	// job-submit and worst-case analyze paths.
	gated = `^Benchmark(AssignBacktracking20|Table1Job|Fig2Point|Fig4Margin|CodesignCold|CosimLoop|AnalyzeBatch64|AnalyzeHit|JobSubmitHit|AnalyzeWorstCase)$`

	pairs     = 10
	minLosses = 9
	maxRatio  = 1.25
	// benchtime is a duration rather than an iteration count, so the
	// microsecond benchmarks run thousands of iterations per sample and
	// a no-op's median ratios stay below maxRatio (BENCH_results.txt).
	benchtime = "300ms"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkFig2Point-4   	     226	   5318638 ns/op	  12345 B/op ...
//
// The -N GOMAXPROCS suffix is stripped from the name.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// parse appends every ns/op sample in bench text to samples, in order.
func parse(r io.Reader, samples map[string][]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("bad ns/op %q: %w", m[2], err)
		}
		samples[m[1]] = append(samples[m[1]], ns)
	}
	return sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// decide applies the gate's rule to each benchmark's paired samples:
// parent[name][i] and change[name][i] ran in pair i. It returns one
// report line per benchmark and whether any failed.
func decide(parent, change map[string][]float64) ([]string, bool) {
	var names []string
	for name := range parent {
		names = append(names, name)
	}
	for name := range change {
		if _, ok := parent[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var lines []string
	failed := false
	for _, name := range names {
		p, c := parent[name], change[name]
		switch {
		case len(p) == 0:
			lines = append(lines, fmt.Sprintf("new  %-20s change %12.0f ns/op, not in the parent: not gated", name, median(c)))
		case len(c) == 0:
			lines = append(lines, fmt.Sprintf("FAIL %-20s in the parent but missing from the change", name))
			failed = true
		default:
			losses := 0
			for i := 0; i < len(p) && i < len(c); i++ {
				if c[i] > p[i] {
					losses++
				}
			}
			mp, mc := median(p), median(c)
			verdict := "ok  "
			if losses >= minLosses && mc/mp > maxRatio {
				verdict = "FAIL"
				failed = true
			}
			lines = append(lines, fmt.Sprintf("%s %-20s parent %12.0f ns/op  change %12.0f ns/op  ratio %.2f  slower in %d of %d pairs",
				verdict, name, mp, mc, mc/mp, losses, min(len(p), len(c))))
		}
	}
	return lines, failed
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchgate <rev>")
		os.Exit(2)
	}
	// A write to a closed stdout raises SIGPIPE, which kills the process
	// before the deferred cleanup runs unless the signal is notified;
	// then the write fails with EPIPE instead. (Notify, unlike Ignore,
	// leaves the children's SIGPIPE at its default.)
	signal.Notify(make(chan os.Signal, 1), syscall.SIGPIPE)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	failed, err := run(ctx, ".", os.Args[1])
	stop()
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	case failed:
		fmt.Println("bench gate FAILED")
		os.Exit(1)
	}
	fmt.Println("bench gate passed")
}

// run builds rev and the working tree of the git repository at repo,
// times them in alternating pairs and prints the verdicts. Canceling ctx
// interrupts the build or benchmark in progress. The worktree and
// binaries are removed on every return path.
func run(ctx context.Context, repo, rev string) (bool, error) {
	tmp, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "parent")
	// Registered before the add, so an add cut short by ctx is undone
	// too; the removal itself must outlive ctx.
	defer command(context.Background(), repo, "git", "worktree", "remove", "--force", tree).Run()
	if err := command(ctx, repo, "git", "worktree", "add", "--detach", tree, rev).Run(); err != nil {
		return false, fmt.Errorf("git worktree add %s: %w", rev, err)
	}

	dirs := [2]string{tree, repo}
	bins := [2]string{filepath.Join(tmp, "parent.test"), filepath.Join(tmp, "change.test")}
	samples := [2]map[string][]float64{{}, {}}
	for s := range dirs {
		if err := command(ctx, dirs[s], "go", "test", "-c", "-o", bins[s], ".").Run(); err != nil {
			return false, fmt.Errorf("build %s: %w", dirs[s], err)
		}
	}
	for pair := 0; pair < pairs; pair++ {
		fmt.Fprintf(os.Stderr, "benchgate: pair %d of %d\n", pair+1, pairs)
		for k := 0; k < 2; k++ {
			s := (pair + k) % 2 // the parent runs first in even pairs
			cmd := command(ctx, dirs[s], bins[s], "-test.run", "^$", "-test.bench", gated, "-test.benchtime", benchtime)
			cmd.Stdout = nil // Output collects it
			out, err := cmd.Output()
			if err != nil {
				return false, fmt.Errorf("%s: %w\n%s", bins[s], err, out)
			}
			if err := parse(bytes.NewReader(out), samples[s]); err != nil {
				return false, err
			}
		}
	}
	lines, failed := decide(samples[0], samples[1])
	for _, l := range lines {
		fmt.Println(l)
	}
	return failed, nil
}

// command runs in dir with all its output on this process's stderr, so
// stdout carries only the verdicts. Canceling ctx interrupts it, so the
// go command can clean up its own temporary files, and kills it if it
// has not exited a few seconds later.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 5 * time.Second
	return cmd
}
