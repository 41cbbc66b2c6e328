// Package serve turns overlapbench into a long-running tuning service: an
// HTTP/JSON job API in front of the replica pool, with the server's
// content-addressed result cache (internal/cache) persisting across jobs so
// the same cell is never simulated twice — the second client asking for a
// grid gets hash lookups, not simulations.
//
// The server is a bounded pipeline: POST /jobs enqueues onto a fixed-depth
// queue (503 when full — callers see backpressure instead of unbounded
// memory), a small set of job runners drains it, and each runner leases its
// worker pool from a shared runner.Limiter so concurrent jobs never
// oversubscribe the machine no matter what widths they ask for. Results are
// the canonical tuning-table JSON, byte-identical to what `overlapbench
// tune` writes at any worker count — determinism is the service's
// correctness contract, and serve_test.go asserts it.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"commoverlap/internal/cache"
	"commoverlap/internal/runner"
	"commoverlap/internal/tune"
)

// Config configures a Server. Zero values select the documented defaults.
type Config struct {
	// Addr is the listen address; empty means 127.0.0.1:0 (an ephemeral
	// port, reported by Addr() once Start returns).
	Addr string
	// QueueDepth bounds the pending-job queue (default 16). A full queue
	// rejects POST /jobs with 503 rather than queueing unboundedly.
	QueueDepth int
	// MaxConcurrentJobs is how many job runners drain the queue (default 2).
	MaxConcurrentJobs int
	// WorkerCap caps the TOTAL simulation workers across all running jobs
	// (default GOMAXPROCS). Each job asks for its requested width and is
	// granted a slice by the shared limiter; the grant shrinks under load
	// but never lets the aggregate exceed the cap.
	WorkerCap int
	// DefaultWorkers is the per-job width when a request omits workers
	// (default 1; jobs are deterministic at any width, so the default
	// favors fairness over single-job latency).
	DefaultWorkers int
	// Cache is the cross-job result store; nil gives the server its own.
	Cache *cache.Store
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.Cache == nil {
		c.Cache = cache.New(0)
	}
	return c
}

// JobRequest is the POST /jobs body: which kernels to tune over which grid,
// with how many workers.
type JobRequest struct {
	// Kernels to tune; nil selects tune.DefaultKernels.
	Kernels []tune.Kernel `json:"kernels,omitempty"`
	// Grid names a built-in grid: "quick" (default) or "full".
	Grid string `json:"grid,omitempty"`
	// GridSpec, when non-nil, is an explicit grid and overrides Grid.
	GridSpec *tune.Grid `json:"grid_spec,omitempty"`
	// Workers is the requested pool width (0 = the server default). The
	// grant is clamped by the server's global worker cap; the job's status
	// reports what it actually got. Results are byte-identical either way.
	Workers int `json:"workers,omitempty"`
}

func (r JobRequest) grid() (tune.Grid, error) {
	if r.GridSpec != nil {
		return *r.GridSpec, nil
	}
	switch r.Grid {
	case "", "quick":
		return tune.QuickGrid(), nil
	case "full":
		return tune.FullGrid(), nil
	}
	return tune.Grid{}, fmt.Errorf("unknown grid %q (want quick, full, or a grid_spec)", r.Grid)
}

// DefaultLoadRequest is a small job for tests and the service benchmark:
// two kernels over an inline grid, twelve cells in all.
func DefaultLoadRequest() JobRequest {
	return JobRequest{
		Kernels: []tune.Kernel{
			{Op: "reduce", Bytes: 256 << 10, Nodes: 4},
			{Op: "allreduce", Bytes: 256 << 10, Nodes: 4},
		},
		GridSpec: &tune.Grid{
			Name:      "loadbench",
			NDups:     []int{1, 2, 4},
			PPNs:      []int{1, 2},
			LaunchPPN: 2,
			Protocols: []tune.Params{{}},
		},
	}
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobStatus is the GET /jobs/{id} body.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Done and Total count completed vs planned cells; Total is known
	// from submit.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Workers is the granted pool width (0 until the job starts).
	Workers int `json:"workers"`
	// Cached counts the finished job's cells it did not simulate: cache
	// hits, including waits on a simulation already in flight.
	Cached int `json:"cached"`
	// Elapsed is the job's run time in seconds (0 until it finishes).
	Elapsed float64 `json:"elapsed"`
	Error   string  `json:"error,omitempty"`
}

// CellEvent is one line of the GET /jobs/{id}/events NDJSON stream: a cell
// completion, or the terminal event (Kernel "" with the job's final state).
type CellEvent struct {
	Kernel string  `json:"kernel,omitempty"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
	BW     float64 `json:"bw,omitempty"`
	Cached bool    `json:"cached,omitempty"`
	State  string  `json:"state,omitempty"` // terminal event only
}

// job is the server-side record.
type job struct {
	id  string
	req JobRequest

	mu      sync.Mutex
	status  JobStatus
	events  []CellEvent
	wake    chan struct{} // closed and replaced on every append
	result  []byte        // canonical table JSON once done
	started time.Time
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// append records an event and wakes streaming watchers.
func (j *job) append(ev CellEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// ServerStats is the GET /stats body: the shared cache counters plus the
// queue and worker occupancy.
type ServerStats struct {
	Cache       cache.Stats `json:"cache"`
	Queued      int         `json:"queued"`
	Jobs        int         `json:"jobs"`
	WorkersUsed int         `json:"workers_used"`
	WorkersPeak int         `json:"workers_peak"`
	WorkerCap   int         `json:"worker_cap"`
	Draining    bool        `json:"draining"`
}

// Server is the overlapbench tuning service.
type Server struct {
	cfg     Config
	store   *cache.Store
	limiter *runner.Limiter
	queue   chan *job
	http    *http.Server
	ln      net.Listener

	// mu guards jobs, finished, seq, peak and drain. drain flips and the
	// queue closes under it, and submissions check drain and send under it,
	// so a send never meets a closed queue.
	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // IDs of the jobs in jobs that have finished, oldest first
	seq      int
	peak     int // high-water aggregate granted workers
	drain    bool
	wg       sync.WaitGroup

	// testHold, when set before Start, is called by each job runner right
	// after a job enters StateRunning; tests block in it to pin a job in
	// the running state deterministically.
	testHold func()
}

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so a client that never finishes them does not hold a
// goroutine and a descriptor forever. net/http starts the timer when the
// connection is accepted and, on a kept-alive connection, when the next
// request's first bytes arrive, so idle keep-alive clients are unaffected.
// There is no write timeout: GET /jobs/{id}/events streams for a job's
// whole life.
const readHeaderTimeout = 10 * time.Second

// New builds a Server; call Start to listen.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   cfg.Cache,
		limiter: runner.NewLimiter(cfg.WorkerCap),
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	return s
}

// Start begins listening and launches the job runners. It returns once the
// listener is bound; Addr() then reports the bound address.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for i := 0; i < s.cfg.MaxConcurrentJobs; i++ {
		s.wg.Add(1)
		go s.runJobs()
	}
	go s.http.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown
	return nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown drains gracefully: new submissions are rejected with 503,
// queued and running jobs finish (bounded by ctx), then the HTTP listener
// closes. Clients polling an accepted job keep getting answers until the
// end. net/http counts a connection that has not sent a request yet as
// idle only once it is 5 s old, so a client holding such a connection
// open delays the return by up to 5 s; clients should close their idle
// connections first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.drain = true
	close(s.queue)
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.http.Shutdown(ctx)
}

// runJobs is one job runner: it drains the queue until Shutdown closes it.
func (s *Server) runJobs() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job: lease workers from the shared limiter, run the
// search against the cross-job cache, record the canonical result bytes.
func (s *Server) runJob(j *job) {
	want := j.req.Workers
	if want <= 0 {
		want = s.cfg.DefaultWorkers
	}
	granted := s.limiter.Acquire(want)
	defer s.limiter.Release(granted)
	s.mu.Lock()
	if in := s.limiter.InUse(); in > s.peak {
		s.peak = in
	}
	s.mu.Unlock()

	grid, err := j.req.grid() // planned at submit; re-resolved here
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	j.mu.Lock()
	j.status.State = StateRunning
	j.status.Workers = granted
	j.started = time.Now()
	j.mu.Unlock()
	if s.testHold != nil {
		s.testHold()
	}

	table, err := tune.Search(tune.Options{
		Grid:    grid,
		Kernels: j.req.Kernels,
		Workers: granted,
		Cache:   s.store,
		OnCell: func(kernel string, c tune.Cell, done, total int) {
			j.mu.Lock()
			j.status.Done, j.status.Total = done, total
			j.mu.Unlock()
			j.append(CellEvent{Kernel: kernel, Done: done, Total: total,
				BW: c.BW, Cached: c.Cached})
		},
	})
	s.finishJob(j, table, err)
}

// maxFinishedJobs is how many finished jobs the server remembers. Finishing
// one more forgets the oldest finished job, result bytes and event log
// included, and its ID then answers 404 like an unknown one. Queued and
// running jobs are never forgotten.
const maxFinishedJobs = 1024

// finishJob records the terminal state and the canonical result bytes, and
// forgets the oldest finished job once more than maxFinishedJobs are kept.
func (s *Server) finishJob(j *job, table *tune.Table, err error) {
	var buf bytes.Buffer
	state := StateDone
	if err == nil && table != nil {
		err = table.WriteJSON(&buf)
	}
	j.mu.Lock()
	if err != nil {
		state = StateFailed
		j.status.Error = err.Error()
	} else {
		j.result = buf.Bytes()
		j.status.Cached, _ = table.CachedCount()
	}
	j.status.State = state
	if !j.started.IsZero() {
		j.status.Elapsed = time.Since(j.started).Seconds()
	}
	j.mu.Unlock()
	j.append(CellEvent{State: state})

	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// maxRequestBytes bounds a POST /jobs body; a real job request, even with
// an explicit grid and many kernels, is a few kilobytes at most.
const maxRequestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields() // a misspelled field must not run the default job
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request body: "+err.Error(), code)
		return
	}
	grid, err := req.grid()
	cells := 0
	if err == nil {
		cells, err = tune.Options{Grid: grid, Kernels: req.Kernels}.Plan()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	s.seq++
	j := &job{
		id:   fmt.Sprintf("job-%d", s.seq),
		req:  req,
		wake: make(chan struct{}),
	}
	j.status = JobStatus{ID: j.id, State: StateQueued, Total: cells}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		http.Error(w, "job queue is full", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, j.snapshot())
}

func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, j.snapshot())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state, result, msg := j.status.State, j.result, j.status.Error
	j.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result) //nolint:errcheck
	case StateFailed:
		http.Error(w, msg, http.StatusInternalServerError)
	default:
		http.Error(w, "job not finished: "+state, http.StatusConflict)
	}
}

// handleEvents streams the job's cell completions as NDJSON: recorded
// events first, then live ones until the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		j.mu.Lock()
		events := j.events[next:]
		next = len(j.events)
		wake := j.wake
		j.mu.Unlock()
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
			if ev.State != "" {
				return // terminal
			}
		}
		if fl != nil {
			fl.Flush()
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	stats := ServerStats{
		Cache:       s.store.Stats(),
		Queued:      len(s.queue),
		Jobs:        len(s.jobs),
		WorkersUsed: s.limiter.InUse(),
		WorkersPeak: s.peak,
		WorkerCap:   s.limiter.Cap(),
		Draining:    s.drain,
	}
	s.mu.Unlock()
	writeJSON(w, stats)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}
