package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
)

// plants is the service's library plant set, in the order the
// generators index it.
var plants = []string{"dc-servo", "inverted-pendulum", "double-integrator", "stable-lag", "fast-servo"}

// request is one client request: a method-less description of what to
// send, plus the reference call the verification recomputes it with.
type request struct {
	path  string // POST target on the gateway
	body  []byte
	items int // verified items the request yields when it succeeds
	// refPath/refBody is the synchronous request whose bytes a direct
	// replica must reproduce; for plain requests it is path/body itself.
	refPath string
	refBody []byte
}

// outcome is what one executed request produced.
type outcome struct {
	status int      // final HTTP status (0 on transport error)
	sum    [32]byte // SHA-256 of the result body
	bytes  int64    // response bytes read across every call
	evals  int      // codesign evaluations (0 elsewhere)
	err    error    // nil when the status was 2xx and every check passed
	bad    bool     // a 2xx response failed its content check
}

// workload is one traffic mix. gen must be a pure function of its
// arguments: n numbers requests across the whole run (warm-up first,
// then the clients' requests interleaved), so equal seeds give equal
// requests and distinct n give distinct ones.
type workload struct {
	name   string
	warmup int // requests sent by the warm-up after its own preload
	// countPer is how many requests each client sends in the count
	// phase.
	countPer int
	preload  func(seed int64) []request // requests the warm-up sends before gen(0..warmup-1); may be nil
	gen      func(seed int64, n int) request
	exec     func(ctx context.Context, c *client, r request) outcome
}

// requestNumber maps client c's i-th request to its run-wide number.
func requestNumber(w *workload, c, i int) int { return w.warmup + nClients*i + c }

var workloads = map[string]*workload{
	"batch_mix":     batchMix,
	"codesign_cold": codesignCold,
	"table1_jobs":   table1Jobs,
}

func workloadNames() string { return "batch_mix, codesign_cold, table1_jobs" }

// splitmix64 is the seed finalizer the campaign engine also uses to
// decorrelate item seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func rngFor(seed int64, n int) *rand.Rand {
	s := splitmix64(splitmix64(uint64(seed)) ^ uint64(n))
	return rand.New(rand.NewSource(int64(s >> 1)))
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---------------------------------------------------------------------
// batch_mix

const (
	batchSize    = 64
	batchHot     = 48 // items per batch from the hot pool; the rest are novel
	hotPeriods   = 16
	novelTasks   = 8
	hotPoolItems = 5 * hotPeriods
)

func hotPeriod(q int) float64 { return 0.004 + float64(q)*0.0005 }

// hotItems is the hot pool: every library plant at every hot period,
// as plant queries.
var hotItems = func() []string {
	out := make([]string, hotPoolItems)
	for k := range out {
		out[k] = fmt.Sprintf(`{"plant":%q,"period":%s}`, plants[k/hotPeriods], num(hotPeriod(k%hotPeriods)))
	}
	return out
}()

// appendNovelItem appends an 8-task set over the hot pool's plants and
// periods. Its first task's name carries the request number and slot,
// so no two novel items ever share a cache key and none is a plant
// query.
func appendNovelItem(b []byte, rng *rand.Rand, n, slot int) []byte {
	util := 0.5 + 0.3*rng.Float64()
	var share [novelTasks]float64
	total := 0.0
	for k := range share {
		share[k] = 0.2 + rng.Float64()
		total += share[k]
	}
	b = append(b, `{"tasks":[`...)
	for k := 0; k < novelTasks; k++ {
		h := hotPeriod(rng.Intn(hotPeriods))
		wcet := math.Max(1e-6, math.Round(util*share[k]/total*h*1e6)/1e6)
		bcet := math.Max(1e-6, math.Round(wcet*(0.3+0.7*rng.Float64())*1e6)/1e6)
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		if k == 0 {
			b = append(b, "novel-"...)
			b = strconv.AppendInt(b, int64(n), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(slot), 10)
		} else {
			b = append(b, 't')
			b = strconv.AppendInt(b, int64(k+1), 10)
		}
		b = append(b, `","plant":"`...)
		b = append(b, plants[rng.Intn(len(plants))]...)
		b = append(b, `","bcet":`...)
		b = strconv.AppendFloat(b, bcet, 'g', -1, 64)
		b = append(b, `,"wcet":`...)
		b = strconv.AppendFloat(b, wcet, 'g', -1, 64)
		b = append(b, `,"period":`...)
		b = strconv.AppendFloat(b, h, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func batchBody(items []string) []byte {
	return []byte(`{"items":[` + strings.Join(items, ",") + `]}`)
}

func plainRequest(path string, body []byte, items int) request {
	return request{path: path, body: body, items: items, refPath: path, refBody: body}
}

var batchMix = &workload{
	name:     "batch_mix",
	warmup:   2,
	countPer: 150,
	preload: func(int64) []request {
		return []request{plainRequest("/v1/analyze/batch", batchBody(hotItems), hotPoolItems)}
	},
	gen: func(seed int64, n int) request {
		rng := rngFor(seed, n)
		// 48 hot slots and 16 novel ones, in a seeded order.
		hot := make([]bool, batchSize)
		for _, k := range rng.Perm(batchSize)[:batchHot] {
			hot[k] = true
		}
		// Consecutive requests walk the hot pool in 48-item strides, so
		// every hot item recurs within two requests and stays resident
		// in its owner's result cache.
		next := int(splitmix64(uint64(seed))%hotPoolItems) + n*batchHot
		b := make([]byte, 0, 16<<10)
		b = append(b, `{"items":[`...)
		novel := 0
		for k := 0; k < batchSize; k++ {
			if k > 0 {
				b = append(b, ',')
			}
			if hot[k] {
				b = append(b, hotItems[next%hotPoolItems]...)
				next++
				continue
			}
			b = appendNovelItem(b, rng, n, novel)
			novel++
		}
		b = append(b, `]}`...)
		return plainRequest("/v1/analyze/batch", b, batchSize)
	},
	exec: func(ctx context.Context, c *client, r request) outcome {
		out := c.post(ctx, r.path, r.body)
		if out.err != nil {
			return out
		}
		if err := checkBatch(c.body, r.items); err != nil {
			return out.fail(err)
		}
		return out
	},
}

// checkBatch requires a batch response to carry want items in both
// meta.items and its items array, none of them an in-band error
// envelope. It scans the array instead of decoding it: a full decode of
// every ~90 KiB response would take a sizeable share of the CPU the
// fleet under test shares with the clients, and the sampled recompute
// checks the bytes themselves.
func checkBatch(body []byte, want int) error {
	cut := bytes.Index(body, []byte(`,"items":[`))
	if cut < 0 {
		return errors.New("batch: no items array")
	}
	var head struct {
		Meta struct {
			Items int `json:"items"`
		} `json:"meta"`
	}
	if err := json.Unmarshal(append(body[:cut:cut], '}'), &head); err != nil {
		return fmt.Errorf("batch meta: %w", err)
	}
	if head.Meta.Items != want {
		return fmt.Errorf("batch: meta.items %d, want %d", head.Meta.Items, want)
	}
	rest := body[cut+len(`,"items":[`):]
	count, depth, inString := 0, 0, false
	for i := 0; i < len(rest); i++ {
		ch := rest[i]
		if inString {
			switch ch {
			case '\\':
				i++
			case '"':
				inString = false
			}
			continue
		}
		switch ch {
		case '"':
			inString = true
		case '{', '[':
			if depth == 0 {
				if bytes.HasPrefix(rest[i:], []byte(`{"error"`)) {
					return fmt.Errorf("batch item %d: in-band error envelope", count)
				}
				count++
			}
			depth++
		case '}', ']':
			depth--
			if depth < 0 {
				if count != want {
					return fmt.Errorf("batch: %d items, want %d", count, want)
				}
				if tail := bytes.TrimSpace(rest[i+1:]); string(tail) != "}" {
					return fmt.Errorf("batch: trailing bytes %q", truncate(tail, 40))
				}
				return nil
			}
		}
	}
	return errors.New("batch: truncated items array")
}

// ---------------------------------------------------------------------
// codesign_cold

// Base candidate grids (seconds) of the two loops; every request scales
// both by its own factor in [1, 1+codesignSpread).
var (
	codesignGrid1 = []float64{0.005, 0.006, 0.008, 0.009, 0.01, 0.012, 0.016}
	codesignGrid2 = []float64{0.004, 0.005, 0.006, 0.008}
)

const codesignSpread = 0.04

// plantPairs lists the ten unordered library-plant pairs.
var plantPairs = func() [][2]string {
	var out [][2]string
	for a := range plants {
		for b := a + 1; b < len(plants); b++ {
			out = append(out, [2]string{plants[a], plants[b]})
		}
	}
	return out
}()

// codesignScale is request n's grid factor: the golden-ratio sequence
// never repeats, so no two requests of a run share a period.
func codesignScale(seed int64, n int) float64 {
	const phi = 0.6180339887498949
	shift := float64(splitmix64(uint64(seed))>>11) / (1 << 53)
	_, frac := math.Modf(float64(n)*phi + shift)
	return 1 + codesignSpread*frac
}

func scaled(grid []float64, s float64) string {
	parts := make([]string, len(grid))
	for i, h := range grid {
		parts[i] = num(h * s)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

var codesignCold = &workload{
	name:     "codesign_cold",
	warmup:   len(plantPairs),
	countPer: 120,
	gen: func(seed int64, n int) request {
		// Consecutive requests go to alternating clients (see
		// requestNumber), so each client walks all ten pairs in turn, the
		// two clients half a cycle apart.
		k := int(splitmix64(uint64(seed))%uint64(len(plantPairs))) + n/2 + len(plantPairs)/2*(n%2)
		pair := plantPairs[k%len(plantPairs)]
		s := codesignScale(seed, n)
		body := fmt.Sprintf(`{"loops":[{"plant":%q,"bcet":0.00105,"wcet":0.0015,"periods":%s},{"plant":%q,"bcet":0.0008,"wcet":0.0012,"periods":%s}],"horizon":0.25,"seed":%d}`,
			pair[0], scaled(codesignGrid1, s), pair[1], scaled(codesignGrid2, s), int64(splitmix64(uint64(seed)^uint64(n))>>33))
		return plainRequest("/v1/codesign", []byte(body), 1)
	},
	exec: func(ctx context.Context, c *client, r request) outcome {
		out := c.post(ctx, r.path, r.body)
		if out.err != nil {
			return out
		}
		var res struct {
			Meta struct {
				Items int `json:"items"`
			} `json:"meta"`
			Evaluations int `json:"evaluations"`
		}
		if err := json.Unmarshal(c.body, &res); err != nil {
			return out.fail(fmt.Errorf("codesign body: %w", err))
		}
		if res.Evaluations < 1 || res.Meta.Items != res.Evaluations {
			return out.fail(fmt.Errorf("codesign: meta.items %d != evaluations %d", res.Meta.Items, res.Evaluations))
		}
		out.evals = res.Evaluations
		return out
	},
}

// ---------------------------------------------------------------------
// table1_jobs

var table1Sizes = []int{4, 8}

const table1Benchmarks = 96

var table1Jobs = &workload{
	name:     "table1_jobs",
	warmup:   4,
	countPer: 300,
	gen: func(seed int64, n int) request {
		// Distinct n give distinct campaign seeds within a run.
		inner := fmt.Sprintf(`{"benchmarks":%d,"sizes":[%d,%d],"seed":%d}`,
			table1Benchmarks, table1Sizes[0], table1Sizes[1], seed<<32+int64(n))
		return request{
			path:    "/v1/jobs",
			body:    []byte(`{"kind":"table1","request":` + inner + `}`),
			items:   table1Benchmarks * len(table1Sizes),
			refPath: "/v1/experiments/table1",
			refBody: []byte(inner),
		}
	},
	exec: func(ctx context.Context, c *client, r request) outcome {
		out := c.timed(spanSubmit, func() outcome { return c.post(ctx, r.path, r.body) })
		if out.err != nil {
			return out
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(c.body, &st); err != nil || st.ID == "" {
			return out.fail(fmt.Errorf("job submit: no id in %q", c.body))
		}
		if out.status != http.StatusAccepted {
			return out.fail(fmt.Errorf("job submit: status %d, want 202", out.status))
		}
		total := out.bytes
		out = c.timed(spanWait, func() outcome { return c.waitJob(ctx, st.ID) })
		total += out.bytes
		if out.err != nil {
			out.bytes = total
			return out
		}
		out = c.timed(spanResult, func() outcome { return c.get(ctx, "/v1/jobs/"+st.ID+"/result") })
		out.bytes += total
		if out.err != nil {
			return out
		}
		var res struct {
			Meta struct {
				Items int `json:"items"`
			} `json:"meta"`
		}
		if err := json.Unmarshal(c.body, &res); err != nil {
			return out.fail(fmt.Errorf("job result body: %w", err))
		}
		if res.Meta.Items != r.items {
			return out.fail(fmt.Errorf("job result: meta.items %d, want %d", res.Meta.Items, r.items))
		}
		return out
	},
}

// waitJob follows a job's event stream to its terminal event and
// requires it to be the result, not an error.
func (c *client) waitJob(ctx context.Context, id string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"?stream=1", nil)
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("X-Client", c.id)
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{err: fmt.Errorf("job stream: %w", err)}
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	out := outcome{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, cr)
		out.bytes = cr.n
		out.err = fmt.Errorf("job stream: status %d", resp.StatusCode)
		return out
	}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	last := ""
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			out.bytes = cr.n
			return out.fail(fmt.Errorf("job stream line: %w", err))
		}
		last = ev.Type
	}
	out.bytes = cr.n
	if err := sc.Err(); err != nil {
		out.err = fmt.Errorf("job stream: %w", err)
		return out
	}
	if last != "result" {
		return out.fail(fmt.Errorf("job %s ended with %q event, want result", id, last))
	}
	return out
}

// fail marks a 2xx response that failed its content check.
func (o outcome) fail(err error) outcome {
	o.err, o.bad = err, true
	return o
}

// ---------------------------------------------------------------------
// client

// client is one closed-loop caller: it has at most one request in
// flight and identifies itself with X-Client: bench-<n>.
type client struct {
	n    int
	id   string
	base string
	http *http.Client
	t    *tracer
	body []byte // the last response body
}

func newClient(n int, base string, hc *http.Client, t *tracer) *client {
	return &client{n: n, id: fmt.Sprintf("%s%d", clientHeaderPrefix, n), base: base, http: hc, t: t}
}

// timed runs one call under a client span when the request is traced.
func (c *client) timed(name string, call func() outcome) outcome {
	if !c.t.active(c.n) {
		return call()
	}
	start := c.t.now()
	out := call()
	c.t.record(name, c.n, -1, start)
	return out
}

func (c *client) post(ctx context.Context, path string, body []byte) outcome {
	return c.do(ctx, http.MethodPost, path, body)
}

func (c *client) get(ctx context.Context, path string) outcome {
	return c.do(ctx, http.MethodGet, path, nil)
}

func (c *client) do(ctx context.Context, method, path string, body []byte) outcome {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return outcome{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Client", c.id)
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{err: fmt.Errorf("%s %s: %w", method, path, err)}
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(c.body[:0])
	_, err = buf.ReadFrom(resp.Body)
	c.body = buf.Bytes()
	out := outcome{status: resp.StatusCode, bytes: int64(len(c.body)), sum: sha256.Sum256(c.body)}
	switch {
	case err != nil:
		out.err = fmt.Errorf("%s %s: read body: %w", method, path, err)
	case resp.StatusCode/100 != 2:
		out.err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, truncate(c.body, 200))
	}
	return out
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

var errUnknownWorkload = errors.New("unknown workload")
