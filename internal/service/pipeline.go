package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"ctrlsched/internal/experiments"
	"ctrlsched/internal/jobs"
)

// The request pipeline. Every request — a sync call, a ?stream=1
// response, a job run, a recovered job — takes one path: its kind's
// prepare step turns the raw body into a keyed request, run counts it
// once, and serve answers it from the cache tiers its kind-table row
// names, computing it at most once.

// tier is one place a result can come from, or a gate it passes.
type tier uint8

const (
	// tierLRU is this replica's in-memory cache of encoded responses.
	tierLRU tier = 1 << iota
	// tierFlight makes identical concurrent requests wait on one
	// computation.
	tierFlight
	// tierPool is bounded admission to the campaign pool.
	tierPool
	// tierStore is the durable content-addressed result store on disk.
	tierStore
)

// progressMode is how a kind's campaign progress reaches its streams.
type progressMode uint8

const (
	noProgress   progressMode = iota
	everyEvent                // one line per event (codesign evaluations)
	percentSteps              // collapsed to ~1% steps (campaigns deliver far more events than a client can use)
)

// kind is one row of the request-kind table.
type kind struct {
	name  string
	tiers tier
	// route is the kind's sync endpoint; "" marks an experiment, served
	// under /v1/experiments/{name}.
	route string
	// maxBody is the route's request body limit.
	maxBody int64
	// stream reports whether the route accepts ?stream=1.
	stream bool
	// progress is what the kind's run reports to streams and joiners.
	progress progressMode
	// prep is the kind's one prepare step: strict decode, normalize,
	// validate, and canonical key. It fills every request field but
	// kind.
	prep func(s *Service, raw []byte) (request, error)
	// example is a small valid body of the kind. The cross-surface test
	// sends it on every surface, so no row joins the table untested.
	example string
}

// prepare runs k's prepare step on raw.
func (k *kind) prepare(s *Service, raw []byte) (request, error) {
	req, err := k.prep(s, raw)
	req.kind = k
	return req, err
}

// request is one prepared request: its kind, its cache key, and the
// run step bound to its normalized form.
type request struct {
	kind *kind
	key  cacheKey
	// items is a batch's item count (0 on every other kind): its streams
	// carry one line per item and end with {"type":"result","done":N}.
	items int
	run   runFunc
}

// runFunc computes one prepared request on the caller's goroutine. out
// receives progress and batch items; a canceled ctx aborts the campaign,
// and its partial result is discarded. hit reports that every batch
// item came from a cache.
type runFunc func(ctx context.Context, out sink) (res experiments.Result, hit bool, err error)

// sink receives a request's incremental output. Either field may be
// nil.
type sink struct {
	progress experiments.ProgressFunc
	item     BatchItemFunc
}

// kindTable maps each request kind to its prepare step and the cache
// tiers it is served through. Sync routes, ?stream=1 writers, POST
// /v1/jobs and crash recovery all look kinds up here.
var kindTable = func() map[string]*kind {
	m := map[string]*kind{}
	for _, k := range kindRows {
		m[k.name] = k
	}
	return m
}()

// kindRows are the nine rows of the kind table. The six experiments
// are routed under POST /v1/experiments/{kind}.
var kindRows = []*kind{
	analyzeKind,
	batchKind,
	codesignKind,
	experimentKind(experiments.KindTable1, `{"benchmarks":4,"sizes":[4],"gen":{"grid_points":4}}`,
		experiments.Table1Config.Normalized,
		func(s *Service, n experiments.Table1Config) error {
			return s.checkCampaign(n.Benchmarks, n.Sizes, 1, n.GenSpec)
		},
		func(c experiments.Table1Config, x experiments.Exec) (experiments.Result, error) {
			return experiments.Table1(c, x), nil
		}),
	experimentKind(experiments.KindAnomalies, `{"trials":4,"sizes":[4],"gen":{"grid_points":4}}`,
		experiments.AnomalyConfig.Normalized,
		func(s *Service, n experiments.AnomalyConfig) error {
			return s.checkCampaign(n.Trials, n.Sizes, 1, n.GenSpec)
		},
		func(c experiments.AnomalyConfig, x experiments.Exec) (experiments.Result, error) {
			return experiments.Anomalies(c, x), nil
		}),
	experimentKind(experiments.KindCompare, `{"benchmarks":4,"sizes":[4],"gen":{"grid_points":4}}`,
		experiments.CompareConfig.Normalized,
		func(s *Service, n experiments.CompareConfig) error {
			return s.checkCampaign(n.Benchmarks, n.Sizes, 1, n.GenSpec)
		},
		func(c experiments.CompareConfig, x experiments.Exec) (experiments.Result, error) {
			return experiments.Compare(c, x), nil
		}),
	experimentKind(experiments.KindFig5, `{"benchmarks":4,"sizes":[4],"gen":{"grid_points":4}}`,
		experiments.Fig5Config.Normalized,
		func(s *Service, n experiments.Fig5Config) error {
			// Three passes per benchmark: suite generation plus two timed runs.
			return s.checkCampaign(n.Benchmarks, n.Sizes, 3, n.GenSpec)
		},
		func(c experiments.Fig5Config, x experiments.Exec) (experiments.Result, error) {
			r := experiments.Fig5(c, x)
			// The wall-clock columns are the one non-deterministic part of
			// any experiment; the service's byte-identical-response promise
			// requires serving only the deterministic counts.
			r.StripTimings()
			return &r, nil
		}),
	experimentKind(experiments.KindFig2, `{"points":8}`,
		experiments.Fig2RunConfig.Normalized,
		func(s *Service, n experiments.Fig2RunConfig) error {
			if n.Points < 2 {
				return badRequest("fig2: points %d below the 2-point minimum", n.Points)
			}
			// Division avoids the overflow a 2*Points product could hit.
			if n.Points > s.cfg.MaxItems/2 {
				return badRequest("fig2: %d grid points exceed the service limit of %d items", n.Points, s.cfg.MaxItems)
			}
			return nil
		},
		func(c experiments.Fig2RunConfig, x experiments.Exec) (experiments.Result, error) {
			return experiments.Fig2Run(c, x), nil
		}),
	experimentKind(experiments.KindFig4, `{"periods":[0.006],"latency_points":8}`,
		experiments.Fig4Config.Normalized,
		func(s *Service, n experiments.Fig4Config) error {
			if len(n.Periods) > 32 {
				return badRequest("fig4: %d periods exceed the 32-curve limit", len(n.Periods))
			}
			for _, h := range n.Periods {
				if !(h > 0 && h <= 10) {
					return badRequest("fig4: period %v outside (0, 10] seconds", h)
				}
			}
			if n.LatencyPoints < 2 || n.LatencyPoints > 2000 {
				return badRequest("fig4: latency_points %d outside [2, 2000]", n.LatencyPoints)
			}
			return nil
		},
		func(c experiments.Fig4Config, _ experiments.Exec) (experiments.Result, error) {
			return experiments.Fig4Run(c)
		}),
}

// analyzeKind takes no pool slot: batch items join these flights while
// their batch holds one, so a slot here could deadlock a batch against
// its own queued items. Results are cheap to recompute and never stored.
var analyzeKind = &kind{
	name: kindAnalyze, route: "/v1/analyze", maxBody: maxBodyBytes,
	tiers:   tierLRU | tierFlight,
	example: `{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]}`,
	prep: func(s *Service, raw []byte) (request, error) {
		norm, canonical, err := decodeNormalized(raw, AnalyzeRequest.normalize)
		if err != nil {
			return request{}, err
		}
		return s.analyzeItem(norm, canonical), nil
	},
}

// analyzeItem keys one normalized analyze request; the single route and
// every batch item share it, so their results coalesce and cache alike.
func (s *Service) analyzeItem(norm AnalyzeRequest, canonical []byte) request {
	return request{key: makeKey(kindAnalyze, canonical), run: func(context.Context, sink) (experiments.Result, bool, error) {
		res, err := s.runAnalyze(norm)
		return res, false, err
	}}
}

// batchKind holds one pool slot for all its items. Items are cached one
// by one, so the envelope skips the LRU and the flight map; the store
// read-through lets a restarted daemon answer a repeated batch.
var batchKind = &kind{
	name: kindAnalyzeBatch, route: "/v1/analyze/batch", maxBody: maxBatchBodyBytes, stream: true,
	tiers:   tierPool | tierStore,
	example: `{"items":[{"tasks":[{"bcet":0.001,"wcet":0.002,"period":0.01}]},{"plant":"dc-servo","period":0.006}]}`,
	prep: func(s *Service, raw []byte) (request, error) {
		norm, canonical, err := decodeNormalized(raw, BatchRequest.normalize)
		if err != nil {
			return request{}, err
		}
		return request{key: makeKey(kindAnalyzeBatch, canonical), items: len(norm.Items), run: func(ctx context.Context, out sink) (experiments.Result, bool, error) {
			return s.runBatch(ctx, norm.Items, out)
		}}, nil
	},
}

var codesignKind = &kind{
	name: kindCodesign, route: "/v1/codesign", maxBody: maxBodyBytes, stream: true, progress: everyEvent,
	tiers:   tierLRU | tierFlight | tierPool | tierStore,
	example: `{"loops":[{"plant":"dc-servo","bcet":0.0005,"wcet":0.001,"periods":[0.006,0.008]}],"horizon":0.1}`,
	prep: func(s *Service, raw []byte) (request, error) {
		norm, canonical, err := decodeNormalized(raw, CodesignRequest.normalize)
		if err != nil {
			return request{}, err
		}
		return request{key: makeKey(kindCodesign, canonical), run: func(ctx context.Context, out sink) (experiments.Result, bool, error) {
			res, err := s.runCodesign(norm, out.progress, ctx.Done())
			return res, false, err
		}}, nil
	},
}

// experimentKind builds the row of one experiment: every tier, progress
// in ~1% steps, and one Exec for every run: the service's workers and
// pooled generators, the request's progress sink and cancellation. Only
// the config type, its validation, and the run step differ per
// experiment.
func experimentKind[T any](
	name, example string,
	normalize func(T) T,
	validate func(s *Service, norm T) error,
	run func(norm T, x experiments.Exec) (experiments.Result, error),
) *kind {
	return &kind{
		name: name, maxBody: maxBodyBytes, stream: true, progress: percentSteps,
		tiers:   tierLRU | tierFlight | tierPool | tierStore,
		example: example,
		prep: func(s *Service, raw []byte) (request, error) {
			norm, canonical, err := decodeNormalized(raw, func(c T) (T, error) {
				c = normalize(c)
				return c, validate(s, c)
			})
			if err != nil {
				return request{}, err
			}
			return request{key: makeKey(name, canonical), run: func(ctx context.Context, out sink) (experiments.Result, bool, error) {
				x := experiments.Exec{Workers: s.cfg.Workers, Progress: out.progress, Abort: ctx.Done(), Gen: s.generator}
				res, err := run(norm, x)
				return res, false, err
			}}, nil
		},
	}
}

// decodeNormalized is the front of every prepare step: strict decode,
// normalize and validate, then the canonical bytes the key is hashed
// from.
func decodeNormalized[T any](raw []byte, normalize func(T) (T, error)) (T, []byte, error) {
	v, err := decodeStrict[T](raw)
	if err != nil {
		return v, nil, err
	}
	if v, err = normalize(v); err != nil {
		return v, nil, err
	}
	canonical, err := canonicalBytes(v)
	return v, canonical, err
}

// experimentByName returns the row of an experiment kind, or a row
// whose prepare step fails with a 404 when name is no experiment — so
// an unknown kind is counted and answered like any other failure.
func experimentByName(name string) *kind {
	if k, ok := kindTable[name]; ok && k.route == "" {
		return k
	}
	return &kind{name: name, maxBody: maxBodyBytes, prep: func(*Service, []byte) (request, error) {
		return request{}, &Error{Status: http.StatusNotFound, Msg: fmt.Sprintf("unknown experiment kind %q", name)}
	}}
}

// Kinds lists the experiment kinds the service routes, sorted.
func Kinds() []string {
	var out []string
	for name, k := range kindTable {
		if k.route == "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// JobKinds lists every kind a job can run, sorted.
func JobKinds() []string {
	out := make([]string, 0, len(kindTable))
	for name := range kindTable {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// call prepares raw as a k request and runs it.
func (s *Service) call(ctx context.Context, k *kind, raw []byte, out sink) ([]byte, bool, error) {
	req, err := k.prepare(s, raw)
	return s.run(ctx, &req, err, out)
}

// run is where every sync call and every job run is counted, exactly
// once: a prepare failure (prepErr) counts as a failed request, anything
// else is served.
func (s *Service) run(ctx context.Context, req *request, prepErr error, out sink) ([]byte, bool, error) {
	s.requests.Add(1)
	b, hit, err := []byte(nil), false, prepErr
	if err == nil {
		b, hit, err = s.serve(ctx, req, out)
	}
	if err != nil {
		s.errs.Add(1)
	}
	return b, hit, err
}

// serve answers one prepared request from the tiers of its kind, in
// order: the result LRU, the durable store, an identical in-flight
// request to wait on, and finally a computation of its own.
func (s *Service) serve(ctx context.Context, req *request, out sink) ([]byte, bool, error) {
	t := req.kind.tiers
	for {
		if t&tierLRU != 0 {
			if b, ok := s.cache.get(req.key); ok {
				s.hits.Add(1)
				return b, true, nil
			}
		}
		// Durable-store read-through: a restarted daemon serves prior
		// results byte-identical without recompute. Verified reads only; a
		// damaged file quarantines and the request recomputes. Stored bytes
		// carry no item lines, so a request that wants them skips the read.
		if t&tierStore != 0 && out.item == nil {
			if b, ok := s.store.Get(jobs.Key(req.key)); ok {
				if t&tierLRU != 0 {
					s.cache.put(req.key, b)
				}
				s.hits.Add(1)
				return b, true, nil
			}
		}
		if t&tierFlight == 0 {
			return s.execute(ctx, req, out)
		}
		if b, hit, retry, err := s.coalesce(ctx, req, out); !retry {
			return b, hit, err
		}
	}
}

// coalesce serves req through the flight map: it waits on an identical
// in-flight request, or leads a flight of its own that computes req.
// retry reports that the awaited leader failed — possibly just its own
// client's cancellation — so req must start over.
func (s *Service) coalesce(ctx context.Context, req *request, out sink) (b []byte, hit, retry bool, err error) {
	s.flightMu.Lock()
	if f, ok := s.flights[req.key]; ok {
		// An identical request is already computing; wait for its bytes
		// instead of computing them again. The joiner's progress keeps
		// flowing from the leader's campaign until the subscriber is
		// stopped — on every exit from this wait, or the leader would keep
		// invoking a callback whose request is over (a use-after-return on
		// the streaming path).
		sub := f.subscribe(out.progress)
		s.flightMu.Unlock()
		select {
		case <-f.done:
			sub.stop()
			if f.err != nil {
				return nil, false, true, nil
			}
			s.hits.Add(1)
			return f.b, true, false, nil
		case <-ctx.Done():
			sub.stop()
			return nil, false, false, &Error{Status: http.StatusServiceUnavailable, Msg: "canceled while coalesced: " + ctx.Err().Error()}
		}
	}
	f := &flight{done: make(chan struct{})}
	f.subscribe(out.progress)
	s.flights[req.key] = f
	s.flightMu.Unlock()

	lead := sink{item: out.item}
	if req.kind.progress != noProgress {
		lead.progress = f.notify
	}
	b, hit, err = s.execute(ctx, req, lead)
	f.b, f.err = b, err
	s.flightMu.Lock()
	delete(s.flights, req.key)
	s.flightMu.Unlock()
	close(f.done)
	return b, hit, false, err
}

// execute computes one request: pool admission, the run itself,
// canonical encoding, LRU and store fill. Errors and aborted partial
// results are never cached.
func (s *Service) execute(ctx context.Context, req *request, out sink) ([]byte, bool, error) {
	t := req.kind.tiers
	if t&tierPool != 0 {
		release, err := s.admitPool(ctx)
		if err != nil {
			return nil, false, err
		}
		defer release()
		s.active.Add(1)
		defer s.active.Add(-1)
		// Re-check after the queue wait: a previous leader may have filled
		// the cache between this request's lookup and its flight
		// registration. The lookup already counted the miss.
		if t&tierLRU != 0 {
			if b, ok := s.cache.recheck(req.key); ok {
				s.hits.Add(1)
				return b, true, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, false, &Error{Status: http.StatusServiceUnavailable, Msg: "canceled before execution: " + err.Error()}
	}
	if t&tierLRU != 0 {
		s.misses.Add(1)
	}
	// The request context doubles as the campaign abort signal: when the
	// client disconnects mid-run, workers stop instead of burning the pool
	// slot to completion.
	res, hit, err := req.run(ctx, out)
	if err != nil {
		return nil, false, classifyError(req.kind.name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, false, &Error{Status: http.StatusServiceUnavailable, Msg: "canceled during execution: " + err.Error()}
	}
	var buf bytes.Buffer
	if err := experiments.EncodeJSON(&buf, res); err != nil {
		return nil, false, err
	}
	b := buf.Bytes()
	if t&tierLRU != 0 {
		s.cache.put(req.key, b)
	}
	if t&tierStore != 0 {
		_ = s.store.Put(jobs.Key(req.key), req.kind.name, b)
	}
	return b, hit, nil
}

// flight is one in-progress computation identical requests coalesce on:
// the leader fills b/err and closes done; joiners wait on done instead
// of computing the same deterministic bytes again. Every party's
// progress callback subscribes to the flight, so a streaming joiner
// keeps receiving progress lines from the leader's campaign.
type flight struct {
	done chan struct{}
	b    []byte
	err  error

	mu   sync.Mutex
	subs []*subscriber
}

// subscriber wraps one party's ProgressFunc so it can be detached from
// the flight again. A joiner that stops waiting (client disconnect,
// leader-failure retry) must stop its subscriber before returning: on
// the HTTP streaming path the callback writes to that request's
// ResponseWriter, which must never be touched after its handler
// returns.
type subscriber struct {
	mu sync.Mutex
	fn experiments.ProgressFunc // nil once stopped
}

func (sub *subscriber) call(done, total int) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.fn != nil {
		sub.fn(done, total)
	}
}

// stop detaches the callback: once stop returns, the callback is not
// running and will never be invoked again.
func (sub *subscriber) stop() {
	if sub == nil { // subscribe(nil) hands out a nil subscriber
		return
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.fn = nil
}

func (f *flight) subscribe(p experiments.ProgressFunc) *subscriber {
	if p == nil {
		return nil
	}
	sub := &subscriber{fn: p}
	f.mu.Lock()
	f.subs = append(f.subs, sub)
	f.mu.Unlock()
	return sub
}

// notify fans one progress event out to every subscriber; it is the
// ProgressFunc the leader's campaign actually runs with. Stopped
// subscribers stay in the list as no-ops — flights are short-lived, so
// compacting the slice is not worth the bookkeeping.
func (f *flight) notify(done, total int) {
	f.mu.Lock()
	subs := append([]*subscriber(nil), f.subs...)
	f.mu.Unlock()
	for _, sub := range subs {
		sub.call(done, total)
	}
}

// eventSink adapts a typed event stream — a ?stream=1 response or a
// job's event log — to a request's sink: progress lines as the kind
// reports them, and one line per batch item.
func eventSink(req *request, emit func(jobs.Event)) sink {
	var out sink
	if req.kind.progress != noProgress {
		out.progress = progressEmitter(emit, req.kind.progress == percentSteps)
	}
	if req.items > 0 {
		out.item = func(index int, data []byte, hit bool, err error) {
			if err != nil {
				emit(jobs.ItemErrorEvent(index, *errorInfo(err)))
				return
			}
			emit(jobs.ItemEvent(index, json.RawMessage(bytes.TrimRight(data, "\n")), hit))
		}
	}
	return out
}

// progressEmitter adapts an event sink to a campaign ProgressFunc,
// optionally throttled to ~1% granularity.
func progressEmitter(emit func(jobs.Event), throttle bool) experiments.ProgressFunc {
	if !throttle {
		return func(done, total int) { emit(jobs.ProgressEvent(done, total)) }
	}
	var mu sync.Mutex
	lastPct := -1
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		pct := -1
		if total > 0 {
			pct = done * 100 / total
		}
		if pct == lastPct && done != total {
			return
		}
		lastPct = pct
		emit(jobs.ProgressEvent(done, total))
	}
}
