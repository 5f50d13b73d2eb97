// Command lsra-served runs the allocation service: one long-lived
// HTTP daemon over the regalloc Engine with a sharded in-memory
// content-addressed result cache, bounded admission control (429 +
// Retry-After under overload), text and binary request bodies, a
// /metrics endpoint, and graceful drain on SIGTERM/SIGINT. The cache is not persisted: a restart starts cold.
//
//	lsra-served -addr :7421 -cache 4096 -workers 8 -queue 32
//
// Endpoints: POST /allocate, GET /metrics, GET /healthz, GET /config —
// see internal/serve for the request and response schemas and
// cmd/lsra-client for a scripting client.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", ":7421", "listen address")
		algos        = flag.String("algos", "", "comma-separated allocators to serve (empty = all registered)")
		cacheEntries = flag.Int("cache", 0, "result cache capacity in entries (0 = default, -1 = disable)")
		workers      = flag.Int("workers", 0, "concurrent allocation requests (0 = all CPUs)")
		queue        = flag.Int("queue", 0, "admission queue depth beyond the workers (0 = 4x workers)")
		maxEngines   = flag.Int("max-engines", 0, "bound on distinct machine×algorithm engines kept warm (0 = default)")
		verify       = flag.Bool("verify", true, "run the symbolic verifier on every allocation")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
	)
	flag.Parse()

	cfg := serve.Config{
		CacheEntries: *cacheEntries,
		Workers:      *workers,
		QueueDepth:   *queue,
		Verify:       *verify,
		MaxEngines:   *maxEngines,
	}
	if *algos != "" {
		cfg.Algorithms = strings.Split(*algos, ",")
	}
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsra-served:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(*addr) }()
	log.Printf("lsra-served: listening on %s", *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("lsra-served: %v", err)
		}
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("lsra-served: signal received, draining (timeout %v)", *drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(dctx); err != nil {
			log.Fatalf("lsra-served: drain: %v", err)
		}
		log.Printf("lsra-served: drained cleanly")
	}
}
