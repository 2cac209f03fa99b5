// Package sim is a discrete-event simulator for fixed-priority preemptive
// scheduling of periodic tasks on a uniprocessor — the execution substrate
// the paper's Fig. 1 sketches. It measures empirical best-/worst-case
// response times, which must bracket within the analytical [BCRT, WCRT]
// bounds of package rta (a property the tests enforce), and produces the
// per-job input-output delays consumed by the co-simulation layer.
//
// Job execution times can be fixed, alternate between bounds, or be drawn
// from a seeded random distribution over [BCET, WCET]; releases can carry
// fixed offsets. The simulator is event-driven (release and completion
// events only), so simulating millions of jobs is cheap.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"ctrlsched/internal/campaign"
	"ctrlsched/internal/rta"
)

// ExecModel chooses how per-job execution demand is drawn.
type ExecModel int

const (
	// ExecWorstCase runs every job for its WCET (critical-instant-like).
	ExecWorstCase ExecModel = iota
	// ExecBestCase runs every job for its BCET.
	ExecBestCase
	// ExecRandom draws each job's demand uniformly from [BCET, WCET]
	// using the configured seed.
	ExecRandom
	// ExecAlternating alternates BCET and WCET per task, maximizing
	// observed execution-time variation.
	ExecAlternating
)

// Config controls one simulation run.
type Config struct {
	// Horizon is the simulated time span in seconds.
	Horizon float64
	// Exec selects the execution-time model (default ExecWorstCase).
	Exec ExecModel
	// Seed feeds the ExecRandom model.
	Seed int64
	// Offsets, if non-nil, gives per-task release offsets (default: all
	// tasks released synchronously at time zero — the critical instant).
	Offsets []float64
}

// JobRecord captures one completed job.
type JobRecord struct {
	Task     int     // task index
	Release  float64 // release instant
	Finish   float64 // completion instant
	Response float64 // Finish − Release
}

// TaskStats aggregates the observed response times of one task.
type TaskStats struct {
	Jobs        int
	MinResponse float64
	MaxResponse float64
	SumResponse float64
}

// MeanResponse returns the average observed response time.
func (s TaskStats) MeanResponse() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return s.SumResponse / float64(s.Jobs)
}

// ObservedJitter returns MaxResponse − MinResponse, the empirical
// counterpart of J = Rʷ − Rᵇ.
func (s TaskStats) ObservedJitter() float64 {
	if s.Jobs == 0 {
		return 0
	}
	return s.MaxResponse - s.MinResponse
}

// Result is the outcome of a simulation run.
type Result struct {
	Stats []TaskStats // indexed like the input tasks
	// Jobs is the full job trace in completion order (nil unless
	// Config.KeepTrace… the trace is always kept; horizon-bounded runs
	// stay small because records are 4 words each).
	Jobs []JobRecord
	// DeadlineMisses counts jobs finishing after the next release of
	// their task (implicit deadlines).
	DeadlineMisses int
}

// event is a release occurrence in the priority queue.
type event struct {
	time float64
	task int
	seq  int // tie-break for determinism
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// job is a released, not-yet-finished job.
type job struct {
	task      int
	release   float64
	remaining float64
}

// Run simulates the task set under the priority assignment prio
// (larger = higher priority, all distinct) and returns observed statistics.
func Run(tasks []rta.Task, prio []int, cfg Config) (*Result, error) {
	n := len(tasks)
	if len(prio) != n {
		return nil, fmt.Errorf("sim: priority vector length %d != %d tasks", len(prio), n)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("sim: horizon must be positive, got %v", cfg.Horizon)
	}
	if cfg.Offsets != nil && len(cfg.Offsets) != n {
		return nil, fmt.Errorf("sim: offsets length %d != %d tasks", len(cfg.Offsets), n)
	}
	rng := campaign.NewRand(cfg.Seed)

	res := &Result{Stats: make([]TaskStats, n)}
	for i := range res.Stats {
		res.Stats[i].MinResponse = math.Inf(1)
	}

	// Pending jobs per task in FIFO order (a task can have at most a few
	// backlogged jobs unless overloaded; slices suffice).
	pending := make([][]job, n)
	altFlip := make([]bool, n)

	demand := func(t int) float64 {
		task := tasks[t]
		switch cfg.Exec {
		case ExecBestCase:
			return task.BCET
		case ExecRandom:
			return task.BCET + rng.Float64()*(task.WCET-task.BCET)
		case ExecAlternating:
			altFlip[t] = !altFlip[t]
			if altFlip[t] {
				return task.WCET
			}
			return task.BCET
		default:
			return task.WCET
		}
	}

	// Seed the release queue.
	q := &eventQueue{}
	seq := 0
	for i := range tasks {
		off := 0.0
		if cfg.Offsets != nil {
			off = cfg.Offsets[i]
		}
		heap.Push(q, event{time: off, task: i, seq: seq})
		seq++
	}

	now := 0.0
	const eps = 1e-12
	for q.Len() > 0 {
		ev := heap.Pop(q).(event)
		if ev.time > cfg.Horizon {
			break
		}

		// Execute the processor from `now` to ev.time: repeatedly run
		// the highest-priority pending job.
		for now < ev.time-eps {
			hi := highestPriority(pending, prio)
			if hi < 0 {
				now = ev.time // idle until next release
				break
			}
			j := &pending[hi][0]
			finish := now + j.remaining
			if finish <= ev.time+eps {
				// Job completes before the next release.
				record(res, tasks, *j, finish)
				pending[hi] = pending[hi][1:]
				now = finish
			} else {
				// Preempted (or interrupted) by the release event.
				j.remaining -= ev.time - now
				now = ev.time
			}
		}
		now = ev.time

		// Release the job and schedule the task's next release.
		pending[ev.task] = append(pending[ev.task], job{
			task:      ev.task,
			release:   ev.time,
			remaining: demand(ev.task),
		})
		heap.Push(q, event{time: ev.time + tasks[ev.task].Period, task: ev.task, seq: seq})
		seq++
	}

	// Drain the backlog after the last release within the horizon.
	for {
		hi := highestPriority(pending, prio)
		if hi < 0 {
			break
		}
		j := pending[hi][0]
		pending[hi] = pending[hi][1:]
		now += j.remaining
		record(res, tasks, j, now)
	}
	return res, nil
}

// highestPriority returns the task index owning the highest-priority
// pending job, or −1 if none.
func highestPriority(pending [][]job, prio []int) int {
	best, bestPrio := -1, math.MinInt32
	for t, jobs := range pending {
		if len(jobs) > 0 && prio[t] > bestPrio {
			best, bestPrio = t, prio[t]
		}
	}
	return best
}

func record(res *Result, tasks []rta.Task, j job, finish float64) {
	resp := finish - j.release
	st := &res.Stats[j.task]
	st.Jobs++
	st.SumResponse += resp
	if resp < st.MinResponse {
		st.MinResponse = resp
	}
	if resp > st.MaxResponse {
		st.MaxResponse = resp
	}
	if resp > tasks[j.task].Period+1e-9 {
		res.DeadlineMisses++
	}
	res.Jobs = append(res.Jobs, JobRecord{Task: j.task, Release: j.release, Finish: finish, Response: resp})
}
