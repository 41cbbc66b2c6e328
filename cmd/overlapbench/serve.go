package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"commoverlap/internal/serve"
)

// runServe starts the overlapbench tuning service (see internal/serve): an
// HTTP/JSON job API over the replica pool with the cross-job result cache,
// so repeated tuning jobs are served from content-addressed hash lookups
// instead of re-simulation. Blocks until SIGINT/SIGTERM, then drains
// gracefully: accepted jobs finish, new submissions get 503.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address (host:port; port 0 picks one)")
	queue := fs.Int("queue", 16, "pending-job queue depth (full queue rejects with 503)")
	maxJobs := fs.Int("max-jobs", 2, "concurrent job runners")
	workerCap := fs.Int("worker-cap", 0, "total simulation workers across all jobs (0 = GOMAXPROCS)")
	defWorkers := fs.Int("job-workers", 1, "default per-job pool width when a request omits workers")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "how long Shutdown waits for running jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("unexpected arguments %q\nusage: overlapbench serve [-addr host:port] [-queue n] [-max-jobs n] [-worker-cap n] [-job-workers n] [-drain-timeout d]", fs.Args())
	}
	srv := serve.New(serve.Config{
		Addr:              *addr,
		QueueDepth:        *queue,
		MaxConcurrentJobs: *maxJobs,
		WorkerCap:         *workerCap,
		DefaultWorkers:    *defWorkers,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("overlapbench serve: listening on http://%s (POST /jobs, GET /jobs/{id}[/result|/events], GET /stats)\n", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("overlapbench serve: %v — draining (running jobs finish, new jobs get 503)\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("overlapbench serve: drained")
	return nil
}
