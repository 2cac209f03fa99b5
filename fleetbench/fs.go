package main

import "ctrlsched/internal/jobs"

// tmpfsSync is the replicas' store and journal filesystem: the real
// one, with every fsync returning at once, as fsync does on tmpfs. The
// benchmark keeps its files inside its checkout, which sits on whatever
// disk holds it, and a disk's fsync latency depends on that disk and
// on everything else it serves: with real fsyncs, every job would wait
// on two of them (journal begin, store put) and every batch on its
// sub-batches' store puts. Writes, renames and removes still go
// through the OS.
type tmpfsSync struct{ jobs.FS }

func (fs tmpfsSync) CreateTemp(dir, pattern string) (jobs.File, error) {
	f, err := fs.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSync{f}, nil
}

func (fs tmpfsSync) OpenAppend(name string) (jobs.File, error) {
	f, err := fs.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return noSync{f}, nil
}

type noSync struct{ jobs.File }

func (noSync) Sync() error { return nil }
