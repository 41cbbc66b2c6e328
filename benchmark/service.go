package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"commoverlap/internal/cache"
	"commoverlap/internal/serve"
	"commoverlap/internal/tune"
)

// serveClients is the number of closed-loop clients: one per core of the
// 2-core reference host, matching the server's two job runners.
const serveClients = 2

// coldEvery makes every coldEvery-th job of a serve-mixed client a cold one.
const coldEvery = 4

// coldOps are the operations a cold serve-mixed job draws from.
var coldOps = []string{"reduce", "allreduce", "bcast"}

// serveRequests are the warm requests: serve-warm repeats the load
// benchmark's default job; serve-mixed draws from eight one-kernel jobs on
// the same grid.
func serveRequests(mixed bool) []serve.JobRequest {
	base := serve.DefaultLoadRequest()
	if !mixed {
		return []serve.JobRequest{base}
	}
	var reqs []serve.JobRequest
	for _, op := range []string{"reduce", "allreduce"} {
		for shift := 0; shift < 4; shift++ {
			r := base
			r.Kernels = []tune.Kernel{{Op: op, Bytes: 64 << 10 << shift, Nodes: 4}}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// serveState is a primed cache plus the requests and the bytes they must
// return.
type serveState struct {
	seed   int64
	mixed  bool
	store  *cache.Store
	grid   *tune.Grid
	bodies [][]byte // warm request bodies
	want   [][]byte // their result bytes, from priming
	// epochJobs caps the jobs one server instance takes before the
	// benchmark replaces it: the service keeps every finished job (about
	// 5 KB of live heap each), so one instance would hold a 20 s serve-warm
	// run's 90,000 jobs.
	epochJobs int64
	recheck   int // cold jobs re-checked against an uncached search
}

// setupServe primes a cache through a server on an ephemeral port: each warm
// request runs once, cold. serve-mixed then moves the primed cells into a
// store with a byte budget of four times the primed working set, so the cold
// jobs of the timed phase force evictions.
func setupServe(o options, mixed bool) (measureFunc, error) {
	st := &serveState{seed: o.seed, mixed: mixed, epochJobs: 5000, recheck: 32}
	if o.smoke() {
		st.epochJobs, st.recheck = 200, 2
	}
	reqs := serveRequests(mixed)
	st.grid = reqs[0].GridSpec
	primed := cache.New(0)
	srv := serve.New(serve.Config{Cache: primed})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	cl := newClient(srv.Addr())
	var err error
	for _, r := range reqs {
		var body, res []byte
		if body, err = json.Marshal(r); err != nil {
			break
		}
		if res, _, err = cl.job(body, false); err != nil {
			break
		}
		st.bodies = append(st.bodies, body)
		st.want = append(st.want, res)
	}
	cl.close()
	if serr := stopServer(srv); err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}
	st.store = primed
	if mixed {
		ps := primed.Stats()
		st.store = cache.New(4 * ps.Bytes)
		for _, b := range st.want {
			t, err := tune.ReadTable(bytes.NewReader(b))
			if err != nil {
				return nil, err
			}
			for _, e := range t.Entries {
				for _, c := range e.Cells {
					st.store.Put(c.Hash, c.BW)
				}
			}
		}
		if s := st.store.Stats(); s.Entries != ps.Entries || s.Evictions != 0 {
			return nil, fmt.Errorf("budgeted store holds %d of %d primed cells", s.Entries, ps.Entries)
		}
	}
	return st.measure, nil
}

func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// serveClient is one closed-loop client's state; it persists across server
// instances so its seeded request sequence continues.
type serveClient struct {
	id   int
	rng  *rand.Rand
	jobs int // jobs submitted so far
	cold int // cold jobs submitted so far
	recs []jobRecord
}

type jobRecord struct {
	t      jobTimes
	failed bool
	cold   *tune.Kernel // the cold job's kernel, for the re-check
	result []byte       // a cold job's result bytes
}

// measure runs the closed loop: serveClients clients, each submitting its
// next job when the previous one has returned its result bytes.
func (st *serveState) measure(budget time.Duration, tr *tracer) (*sample, error) {
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = &serveClient{id: i, rng: rand.New(rand.NewSource(st.seed*1000 + int64(i)))}
	}
	before := st.store.Stats()
	root := tr.id()
	start := time.Now()
	var wall time.Duration
	for wall < budget {
		srv := serve.New(serve.Config{Cache: st.store})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		cl := newClient(srv.Addr())
		t0 := time.Now()
		deadline := t0.Add(budget - wall)
		var started atomic.Int64
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				for time.Now().Before(deadline) && started.Add(1) <= st.epochJobs {
					st.runOne(cl, c, tr, root)
				}
			}(c)
		}
		// Every client has stopped before the server shuts down.
		wg.Wait()
		wall += time.Since(t0)
		cl.close()
		if err := stopServer(srv); err != nil {
			return nil, err
		}
	}
	tr.span(root, 0, st.name(), "", 0, start, time.Now())
	after := st.store.Stats()

	s := &sample{}
	var submit, stream, result, queue, run []float64
	var colds []jobRecord
	rejected := 0
	for _, c := range clients {
		for _, r := range c.recs {
			s.attempted++
			if r.failed {
				s.failed++
				if r.t.rejected {
					rejected++
				}
				continue
			}
			s.lat = append(s.lat, ms(r.t.done.Sub(r.t.start)))
			submit = append(submit, ms(r.t.streamAt.Sub(r.t.start)))
			stream = append(stream, ms(r.t.resultAt.Sub(r.t.streamAt)))
			result = append(result, ms(r.t.done.Sub(r.t.resultAt)))
			if !r.t.statusAt.IsZero() {
				run = append(run, 1e3*r.t.elapsed)
				queue = append(queue, ms(r.t.resultAt.Sub(r.t.start))-1e3*r.t.elapsed)
			}
			if r.cold != nil {
				colds = append(colds, r)
			}
		}
	}
	if s.attempted == 0 {
		return nil, errors.New("no job was submitted")
	}
	s.rate = float64(s.attempted) / wall.Seconds()
	lookups := float64((after.Hits - before.Hits) + (after.Misses - before.Misses) + (after.Coalesced - before.Coalesced))
	s.layer = map[string]float64{
		"cache.evictions":         float64(after.Evictions - before.Evictions),
		"cache.coalesced":         float64(after.Coalesced - before.Coalesced),
		"serve.submit_ms_p50":     percentile(submit, 0.5),
		"serve.stream_ms_p50":     percentile(stream, 0.5),
		"serve.result_ms_p50":     percentile(result, 0.5),
		"serve.queue_wait_ms_p50": percentile(queue, 0.5),
		"serve.queue_wait_ms_p99": percentile(queue, 0.99),
		"serve.run_ms_p50":        percentile(run, 0.5),
		"serve.rejected":          float64(rejected),
	}
	if lookups > 0 {
		s.layer["cache.hit_ratio"] = float64(after.Hits-before.Hits) / lookups
	}
	s.failed += st.recheckCold(colds)
	return s, nil
}

func (st *serveState) name() string {
	if st.mixed {
		return "serve-mixed"
	}
	return "serve-warm"
}

// runOne submits the client's next job and checks its result. In
// serve-mixed every coldEvery-th job tunes a kernel no job has asked for:
// a seeded operation and node count, and a payload size unique to the
// client and job.
func (st *serveState) runOne(cl *client, c *serveClient, tr *tracer, root int64) {
	rec := jobRecord{}
	var body, want []byte
	if st.mixed && c.jobs%coldEvery == coldEvery-1 {
		k := tune.Kernel{
			Op:    coldOps[c.rng.Intn(len(coldOps))],
			Bytes: 200000 + 8*int64(c.cold*serveClients+c.id),
			Nodes: 4 << c.rng.Intn(2),
		}
		c.cold++
		rec.cold = &k
		var err error
		if body, err = json.Marshal(serve.JobRequest{Kernels: []tune.Kernel{k}, GridSpec: st.grid}); err != nil {
			panic(err) // a JobRequest always encodes
		}
	} else {
		i := c.rng.Intn(len(st.bodies))
		body, want = st.bodies[i], st.want[i]
	}
	c.jobs++
	res, t, err := cl.job(body, tr != nil)
	rec.t = t
	switch {
	case err != nil:
		rec.failed = true
		logMismatch(fmt.Sprintf("client %d job %d", c.id, c.jobs), err.Error(), "a result")
	case rec.cold != nil:
		rec.result = res
	case !bytes.Equal(res, want):
		rec.failed = true
		logMismatch(fmt.Sprintf("client %d job %d", c.id, c.jobs), string(res), string(want))
	}
	c.recs = append(c.recs, rec)
	if tr != nil && err == nil {
		id, group := tr.id(), fmt.Sprintf("c%d-j%d", c.id, c.jobs)
		tr.span(tr.id(), id, "submit", group, c.id+1, t.start, t.streamAt)
		tr.span(tr.id(), id, "stream", group, c.id+1, t.streamAt, t.resultAt)
		tr.span(tr.id(), id, "result", group, c.id+1, t.resultAt, t.done)
		tr.span(tr.id(), id, "status", group, c.id+1, t.done, t.statusAt)
		tr.span(id, root, "job", group, c.id+1, t.start, t.statusAt)
	}
}

// recheckCold re-runs a seeded sample of the cold jobs as uncached
// one-worker searches and counts the results that differ from what the
// service returned.
func (st *serveState) recheckCold(colds []jobRecord) int {
	failed := 0
	rng := rand.New(rand.NewSource(st.seed))
	for n, i := range rng.Perm(len(colds)) {
		if n == st.recheck {
			break
		}
		r := colds[i]
		var buf bytes.Buffer
		t, err := tune.Search(tune.Options{Grid: *st.grid, Kernels: []tune.Kernel{*r.cold}, Workers: 1})
		if err == nil {
			err = t.WriteJSON(&buf)
		}
		if err != nil || !bytes.Equal(buf.Bytes(), r.result) {
			failed++
			logMismatch("cold job "+r.cold.Name(), string(r.result), buf.String())
		}
	}
	return failed
}

// errRejected marks a submission the service refused with 503.
var errRejected = errors.New("rejected")

// client talks to the service over HTTP the way a user's client would.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients},
			Timeout:   time.Minute,
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobTimes are the instants of one job as its client sees them: submit
// starts, the event stream opens, the terminal event has arrived and the
// result is requested, the result bytes are in, and (traced runs only) the
// job status is in.
type jobTimes struct {
	start, streamAt, resultAt, done, statusAt time.Time
	elapsed                                   float64 // JobStatus.Elapsed: the server's run time, seconds
	rejected                                  bool
}

// job POSTs body to /jobs, follows /jobs/{id}/events to the terminal event,
// and fetches /jobs/{id}/result; with status set it then GETs /jobs/{id}.
func (c *client) job(body []byte, status bool) ([]byte, jobTimes, error) {
	var t jobTimes
	t.start = time.Now()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, t, err
	}
	var st serve.JobStatus
	err = decode(resp, http.StatusAccepted, &st)
	t.streamAt = time.Now()
	if err != nil {
		t.rejected = errors.Is(err, errRejected)
		return nil, t, fmt.Errorf("submit: %w", err)
	}
	state, err := c.follow(st.ID)
	t.resultAt = time.Now()
	if err != nil {
		return nil, t, err
	}
	if state != serve.StateDone {
		return nil, t, fmt.Errorf("job %s ended %s", st.ID, state)
	}
	res, err := c.get("/jobs/" + st.ID + "/result")
	t.done = time.Now()
	if err != nil || !status {
		return res, t, err
	}
	resp, err = c.hc.Get(c.base + "/jobs/" + st.ID)
	if err == nil {
		err = decode(resp, http.StatusOK, &st)
	}
	t.statusAt, t.elapsed = time.Now(), st.Elapsed
	return res, t, err
}

// follow reads the job's NDJSON event stream up to the terminal event and
// returns the job's final state.
func (c *client) follow(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.CellEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events: %w", err)
		}
		if ev.State != "" {
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.State, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("events: stream ended without a terminal event")
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: %s", path, resp.Status)
	}
	return body, err
}

// decode reads a JSON response with the expected status and drains the
// body so the connection is reused.
func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		err := fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusServiceUnavailable {
			err = fmt.Errorf("%w: %v", errRejected, err)
		}
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}
