package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"commoverlap/internal/cache"
	"commoverlap/internal/tune"
)

// testRequest is a small job sized for unit tests.
func testRequest(workers int) JobRequest {
	req := DefaultLoadRequest()
	req.Workers = workers
	return req
}

// startServer runs a server on an ephemeral port and shuts it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Racing clients can leave a dialed connection that never carried a
		// request; Shutdown would wait 5 s before treating it as idle.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, "http://" + srv.Addr()
}

// TestServerWarmJobByteIdentity is the service half of the acceptance
// criterion: a second identical job completes with >= 90% cell cache hits
// and byte-identical output, at 1 and at 8 workers.
func TestServerWarmJobByteIdentity(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 8} {
		store := cache.New(0)
		_, base := startServer(t, Config{Cache: store, WorkerCap: 8})

		_, cold, st, err := runJobHTTPStatus(base, testRequest(workers))
		if err != nil {
			t.Fatalf("workers=%d cold: %v", workers, err)
		}
		if st.Workers < 1 || st.Workers > 8 {
			t.Fatalf("workers=%d: granted %d", workers, st.Workers)
		}
		if ref == nil {
			ref = cold
		} else if !bytes.Equal(cold, ref) {
			t.Fatalf("workers=%d: cold table differs from workers=1 table", workers)
		}
		_, warm, st, err := runJobHTTPStatus(base, testRequest(workers))
		if err != nil {
			t.Fatalf("workers=%d warm: %v", workers, err)
		}
		if !bytes.Equal(warm, cold) {
			t.Fatalf("workers=%d: warm response not byte-identical to cold", workers)
		}
		if st.Total == 0 || float64(st.Cached) < 0.9*float64(st.Total) {
			t.Fatalf("workers=%d: warm job cached %d of %d cells, want >= 90%%",
				workers, st.Cached, st.Total)
		}
		if store.Stats().Hits == 0 {
			t.Fatalf("workers=%d: store counted no hits", workers)
		}
	}
}

// TestServerConcurrentClientsCoalesce: >= 4 clients hammer a cold server
// with the identical job; every response is byte-identical and the store
// reports cache traffic (hits, or coalesced waits when jobs overlap).
func TestServerConcurrentClientsCoalesce(t *testing.T) {
	store := cache.New(0)
	_, base := startServer(t, Config{
		Cache:             store,
		MaxConcurrentJobs: 4,
		WorkerCap:         8,
		QueueDepth:        16,
	})
	const clients = 4
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			_, bodies[c], errs[c] = runJobHTTP(base, testRequest(2))
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if !bytes.Equal(bodies[c], bodies[0]) {
			t.Errorf("client %d: response differs from client 0", c)
		}
	}
	st := store.Stats()
	if st.Hits+st.Coalesced == 0 {
		t.Errorf("no cache traffic across %d identical concurrent jobs: %+v", clients, st)
	}
}

// TestServerWorkerCapNotOversubscribed: concurrent greedy jobs each ask
// for far more workers than the cap; the granted widths and the limiter's
// high-water mark must respect it.
func TestServerWorkerCapNotOversubscribed(t *testing.T) {
	const cap = 2
	_, base := startServer(t, Config{
		Cache:             cache.New(0),
		MaxConcurrentJobs: 4,
		WorkerCap:         cap,
		QueueDepth:        16,
	})
	const jobs = 4
	var wg sync.WaitGroup
	statuses := make([]JobStatus, jobs)
	errs := make([]error, jobs)
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, statuses[i], errs[i] = runJobHTTPStatus(base, testRequest(16))
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if st.Workers < 1 || st.Workers > cap {
			t.Errorf("job %d granted %d workers, cap is %d", i, st.Workers, cap)
		}
	}
	var stats ServerStats
	getJSON(t, base+"/stats", &stats)
	if stats.WorkersPeak > cap {
		t.Errorf("aggregate worker high-water %d exceeds cap %d", stats.WorkersPeak, cap)
	}
	if stats.WorkerCap != cap {
		t.Errorf("stats report cap %d, want %d", stats.WorkerCap, cap)
	}
}

// TestServerQueueBackpressure: with one runner occupied and a depth-1
// queue, a third submission is rejected with 503 instead of queueing
// unboundedly. The testHold hook pins the first job in StateRunning so
// the sequence is deterministic regardless of simulation speed.
func TestServerQueueBackpressure(t *testing.T) {
	srv := New(Config{
		Cache:             cache.New(0),
		MaxConcurrentJobs: 1,
		QueueDepth:        1,
	})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv.testHold = func() {
		started <- struct{}{}
		<-release
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	base := "http://" + srv.Addr()
	req := DefaultLoadRequest()
	id, err := submitJob(base, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started // job 1 dequeued and pinned running; the queue slot is free
	if _, err := submitJob(base, req); err != nil {
		t.Fatalf("second job should queue: %v", err)
	}
	if _, err := submitJob(base, req); err == nil ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("third job on a full queue: err=%v, want 503", err)
	}
	close(release) // let job 1 (and then job 2) run to completion
	if _, err := waitJob(base, id, 0); err != nil {
		t.Fatal(err)
	}
}

// TestServerEventsStream: the NDJSON stream delivers every cell completion
// with a monotone done counter and a terminal state line.
func TestServerEventsStream(t *testing.T) {
	_, base := startServer(t, Config{Cache: cache.New(0)})
	id, err := submitJob(base, testRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	cells, last := 0, 0
	terminal := ""
	for sc.Scan() {
		var ev CellEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.State != "" {
			terminal = ev.State
			break
		}
		cells++
		if ev.Done != last+1 {
			t.Fatalf("done jumped %d -> %d", last, ev.Done)
		}
		last = ev.Done
		if ev.Total <= 0 || ev.BW <= 0 {
			t.Fatalf("malformed event %+v", ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal != StateDone {
		t.Fatalf("terminal state %q, want %q", terminal, StateDone)
	}
	st, err := waitJob(base, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cells != st.Total || cells != last {
		t.Fatalf("streamed %d cells, job total %d", cells, st.Total)
	}
}

// TestServerValidationAndNotFound: bad grids and unknown jobs get 4xx, and
// an unfinished job's result endpoint reports conflict.
func TestServerValidationAndNotFound(t *testing.T) {
	_, base := startServer(t, Config{Cache: cache.New(0)})
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"grid":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown grid: %s, want 400", resp.Status)
	}
	for _, path := range []string{"/jobs/job-999", "/jobs/job-999/result", "/jobs/job-999/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %s, want 404", path, resp.Status)
		}
	}
	var health string
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 16)
	n, _ := hresp.Body.Read(b)
	hresp.Body.Close()
	health = strings.TrimSpace(string(b[:n]))
	if health != "ok" {
		t.Errorf("healthz said %q", health)
	}
}

// TestServerRejectsMalformedSubmit: a misspelled field is a 400, not a job
// that silently runs the default grid, and a body over maxRequestBytes is a
// 413 even when it is otherwise a valid request; neither registers a job.
func TestServerRejectsMalformedSubmit(t *testing.T) {
	srv := New(Config{Cache: cache.New(0)}) // no runners: nothing may be queued
	const tiny = `{"kernels":[{"op":"reduce","bytes":1024,"nodes":2}],` +
		`"grid_spec":{"name":"x","ndups":[1],"ppns":[1],"launch_ppn":1,"protocols":[{}]}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"unknown field", `{"grid_specs":{"name":"x"}}`, http.StatusBadRequest},
		{"oversized body", tiny + strings.Repeat(" ", maxRequestBytes) + "}", http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		srv.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	if len(srv.jobs) != 0 || len(srv.queue) != 0 {
		t.Errorf("rejected submissions registered %d jobs, queued %d", len(srv.jobs), len(srv.queue))
	}
}

// TestServerRejectsUnrunnableSubmit: a request that tune.Plan refuses — an
// unknown op, a PPN above the launch width, or a kernel or grid over the
// size limits — is a 400 at submit with no job registered, while the full
// built-in grid is still accepted with its planned cell count.
func TestServerRejectsUnrunnableSubmit(t *testing.T) {
	srv := New(Config{Cache: cache.New(0)}) // no runners: an accepted job stays queued
	const grid = `"grid_spec":{"name":"x","ndups":[1],"ppns":[1],"launch_ppn":2,"protocols":[{}]}`
	for _, tc := range []struct{ name, body string }{
		{"bogus op", `{"kernels":[{"op":"bogus","bytes":1024,"nodes":2}],` + grid + `}`},
		{"ppn above launch ppn", `{"kernels":[{"op":"reduce","bytes":1024,"nodes":2}],` +
			`"grid_spec":{"name":"x","ndups":[1],"ppns":[9],"launch_ppn":2,"protocols":[{}]}}`},
		{"100000 nodes", `{"kernels":[{"op":"reduce","bytes":1024,"nodes":100000}],` + grid + `}`},
		{"ndup 1000", `{"kernels":[{"op":"reduce","bytes":1024,"nodes":2}],` +
			`"grid_spec":{"name":"x","ndups":[1000],"ppns":[1],"launch_ppn":2,"protocols":[{}]}}`},
		{"chunk_bytes 1", `{"kernels":[{"op":"reduce","bytes":1024,"nodes":2}],` +
			`"grid_spec":{"name":"x","ndups":[1],"ppns":[1],"launch_ppn":2,"protocols":[{"chunk_bytes":1}]}}`},
	} {
		rec := httptest.NewRecorder()
		srv.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(tc.body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, rec.Code)
		}
	}
	if len(srv.jobs) != 0 || len(srv.queue) != 0 {
		t.Fatalf("rejected submissions registered %d jobs, queued %d", len(srv.jobs), len(srv.queue))
	}
	rec := httptest.NewRecorder()
	srv.http.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"grid":"full"}`)))
	var st JobStatus
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || rec.Code != http.StatusAccepted || len(srv.jobs) != 1 {
		t.Fatalf("full grid: %d (%v) with %d jobs, want 202 and one job", rec.Code, err, len(srv.jobs))
	}
	if st.Total != 7648 {
		t.Errorf("queued full-grid job plans %d cells, want 7648", st.Total)
	}
}

// TestServerGracefulDrain: Shutdown finishes accepted jobs and then
// rejects new ones; the accepted job's result stays fetchable until the
// listener closes.
func TestServerGracefulDrain(t *testing.T) {
	srv := New(Config{Cache: cache.New(0)})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	id, err := submitJob(base, testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The job must have finished during the drain.
	j := func() *job { srv.mu.Lock(); defer srv.mu.Unlock(); return srv.jobs[id] }()
	if j == nil {
		t.Fatal("accepted job vanished")
	}
	if st := j.snapshot(); st.State != StateDone {
		t.Fatalf("drained job state %q, want done (err %q)", st.State, st.Error)
	}
}

// TestServerSubmitRacesShutdown: submissions racing Shutdown are either
// accepted (202, and the drain runs the job to completion) or refused (503,
// leaving no job record behind) — never a send on the closed queue, which
// the client would see as a dropped connection. The submitters post
// through a second listener so Shutdown closing the server's own listener
// does not end the race early.
func TestServerSubmitRacesShutdown(t *testing.T) {
	store := cache.New(0)
	for it := 0; it < 20; it++ {
		srv := New(Config{Cache: store, QueueDepth: 1024})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.http.Handler)
		const submitters = 8
		var (
			wg       sync.WaitGroup
			mu       sync.Mutex
			accepted []string
			errs     []error
			first    sync.Once
		)
		running := make(chan struct{})
		for c := 0; c < submitters; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					id, err := submitJob(ts.URL, testRequest(1))
					mu.Lock()
					switch {
					case err == nil:
						accepted = append(accepted, id)
					case !strings.Contains(err.Error(), "503"):
						errs = append(errs, err)
					}
					mu.Unlock()
					first.Do(func() { close(running) })
					if err != nil {
						return
					}
				}
			}()
		}
		<-running
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		wg.Wait()
		ts.Close()
		for _, err := range errs {
			t.Errorf("iteration %d: submit racing shutdown: %v", it, err)
		}
		srv.mu.Lock()
		if len(srv.jobs) != len(accepted) {
			t.Errorf("iteration %d: %d jobs recorded, %d accepted", it, len(srv.jobs), len(accepted))
		}
		for _, id := range accepted {
			if j := srv.jobs[id]; j == nil {
				t.Errorf("iteration %d: accepted %s is not recorded", it, id)
			} else if st := j.snapshot(); st.State != StateDone {
				t.Errorf("iteration %d: accepted %s drained in state %q", it, id, st.State)
			}
		}
		srv.mu.Unlock()
		if t.Failed() {
			return
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// runJobHTTP submits a job over HTTP, waits for it, and returns the
// latency (ms) and the result body.
func runJobHTTP(base string, req JobRequest) (float64, []byte, error) {
	ms, body, _, err := runJobHTTPStatus(base, req)
	return ms, body, err
}

func runJobHTTPStatus(base string, req JobRequest) (float64, []byte, JobStatus, error) {
	var st JobStatus
	t0 := time.Now()
	id, err := submitJob(base, req)
	if err != nil {
		return 0, nil, st, err
	}
	st, err = waitJob(base, id, 0)
	if err != nil {
		return 0, nil, st, err
	}
	body, err := jobResult(base, id)
	return float64(time.Since(t0)) / float64(time.Millisecond), body, st, err
}

// submitJob POSTs a job and returns its id.
func submitJob(base string, req JobRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// waitJob polls a job until it reaches a terminal state; poll <= 0 selects
// a 10ms interval.
func waitJob(base, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			return JobStatus{}, err
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return JobStatus{}, err
		}
		switch st.State {
		case StateDone:
			return st, nil
		case StateFailed:
			return st, fmt.Errorf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(poll)
	}
}

// jobResult fetches a finished job's canonical table bytes.
func jobResult(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// TestServerForgetsOldestFinishedJobs finishes one job more than the server
// remembers: the oldest finished job answers 404 like an unknown ID, the
// newest keeps its result bytes, and a job still queued is never forgotten.
func TestServerForgetsOldestFinishedJobs(t *testing.T) {
	srv, base := startServer(t, Config{Cache: cache.New(0)})
	newJob := func(id string) *job {
		j := &job{id: id, wake: make(chan struct{})}
		j.status = JobStatus{ID: id, State: StateQueued}
		srv.mu.Lock()
		srv.jobs[id] = j
		srv.mu.Unlock()
		return j
	}
	newJob("queued")
	var newest bytes.Buffer
	for i := 1; i <= maxFinishedJobs+1; i++ {
		table := &tune.Table{SearchSeed: int64(i)}
		srv.finishJob(newJob(fmt.Sprintf("job-%d", i)), table, nil)
		if i == maxFinishedJobs+1 {
			if err := table.WriteJSON(&newest); err != nil {
				t.Fatal(err)
			}
		}
	}
	var stats ServerStats
	getJSON(t, base+"/stats", &stats)
	if stats.Jobs != maxFinishedJobs+1 {
		t.Errorf("stats report %d jobs, want %d finished plus 1 queued", stats.Jobs, maxFinishedJobs)
	}
	for id, want := range map[string]int{"job-1": http.StatusNotFound, "job-2": http.StatusOK, "queued": http.StatusOK} {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET /jobs/%s: %s, want %d", id, resp.Status, want)
		}
	}
	body, err := jobResult(base, fmt.Sprintf("job-%d", maxFinishedJobs+1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, newest.Bytes()) {
		t.Errorf("newest job's result changed:\n%s\nwant\n%s", body, newest.Bytes())
	}
}

// TestServerDropsStalledHeaders opens a connection that sends a request line
// and never finishes the headers: the server must close it once the header
// timeout passes instead of holding it open.
func TestServerDropsStalledHeaders(t *testing.T) {
	srv := New(Config{Cache: cache.New(0)})
	if srv.http.ReadHeaderTimeout <= 0 {
		t.Fatal("New sets no header timeout")
	}
	srv.http.ReadHeaderTimeout = 100 * time.Millisecond // keeps the test short
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server still held the stalled connection after 2 s")
	}
}
