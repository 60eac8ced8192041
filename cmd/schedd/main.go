// Command schedd serves what-if scheduling queries over HTTP. A client
// POSTs a scenario spec (workload preset, DVFS policy, machine size,
// platform overrides) to /v1/whatif and gets back the simulated metrics:
//
//	schedd -addr :8080 &
//	curl -s localhost:8080/v1/whatif -d '{
//	        "workload": "CTC", "jobs": 2000,
//	        "policy":   {"bsld_thr": 2, "wq_thr": 4}
//	}'
//
// ("wq_thr": "NO", or its value core.NoWQLimit = 2147483647, is the
// paper's "NO LIMIT".) The body is the JSON form of scenario.Spec, the
// same document bsldsim -config reads; unknown fields are rejected.
//
// Every request compiles to an immutable scenario whose canonical hash
// keys an LRU result cache, so repeated questions are answered without
// re-simulating and identical concurrent questions share one run. One
// compiler instance backs the whole server: each workload generates or
// parses once into a shared arena no matter how many requests touch it.
// Simulations run on a bounded worker pool (-workers); shutdown via
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent simulations (0 = all cores)")
		cacheSize = flag.Int("cache", 256, "result cache capacity in scenarios (0 disables)")
		maxJobs   = flag.Int("max-jobs", 200000, "largest workload length served (0 = unlimited)")
		allowSWF  = flag.Bool("allow-swf", false, "allow .swf workload paths (reads server-local files)")
		drain     = flag.Duration("drain", 2*time.Minute, "shutdown grace period for in-flight simulations")
	)
	flag.Parse()
	if *workers <= 0 {
		*workers = runtime.NumCPU()
	}

	s := newServer(serverConfig{
		Workers:   *workers,
		CacheSize: *cacheSize,
		MaxJobs:   *maxJobs,
		AllowSWF:  *allowSWF,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.mux(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("schedd: listening on %s (workers=%d cache=%d max-jobs=%d)",
		*addr, *workers, *cacheSize, *maxJobs)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining
	log.Printf("schedd: shutting down, draining in-flight simulations (up to %s)", *drain)
	sdctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sdctx); err != nil {
		fatal(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	log.Printf("schedd: bye (hits=%d misses=%d errors=%d)",
		s.hits.Load(), s.misses.Load(), s.errors.Load())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "schedd:", err)
	os.Exit(1)
}
