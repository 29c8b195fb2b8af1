// Command custodyd is the long-running allocation service: a warm
// manager.Custody session and driver round machinery behind a versioned
// JSON-over-HTTP API, with admission control, a degraded-mode ladder, and
// checkpoint/replay crash recovery (see DESIGN.md §13).
//
// Example session:
//
//	custodyd -dir /tmp/custodyd -addr 127.0.0.1:7654 &
//	curl -s -XPOST localhost:7654/v1/register-app -d '{"name":"etl"}'
//	curl -s -XPOST localhost:7654/v1/submit-job -d '{"tenant":0,"workload":"Sort","file":1}'
//	curl -s localhost:7654/v1/status
//	curl -s localhost:7654/metrics
//
// A 202 from submit-job means the job is already in the intent log.
// SIGTERM/SIGINT drain gracefully: every accepted job runs to completion,
// provenance sinks flush, and a final checkpoint lands. kill -9 loses
// nothing acknowledged: the next boot replays the intent log and verifies
// it against the last checkpoint digest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/custodyd"
)

func main() {
	log.SetFlags(0)
	var (
		addr     = flag.String("addr", "127.0.0.1:7654", "HTTP listen address (use :0 for an ephemeral port; the bound address is written to <dir>/addr)")
		dir      = flag.String("dir", "custodyd-state", "state directory: intent log, checkpoint, metrics exposition, obsv sinks")
		seed     = flag.Uint64("seed", 1, "random seed for the simulated cluster")
		nodes    = flag.Int("nodes", 16, "worker nodes in the simulated cluster")
		tenants  = flag.Int("tenants", 8, "tenant slot pool size (max concurrent applications)")
		queueCap = flag.Int("queue-cap", 16, "per-tenant bound on accepted but unfinished jobs (shed with 429 beyond it)")
		roundMS  = flag.Int("round-ms", 100, "round pacing in milliseconds")
		budgetMS = flag.Int("round-budget-ms", 50, "per-round wall-clock budget; two consecutive overruns trip degraded mode")
		ckptN    = flag.Int("checkpoint-every", 8, "rounds between checkpoints")
		jsonl    = flag.Bool("obsv-jsonl", false, "stream decision provenance to <dir>/obsv.jsonl")
		csv      = flag.Bool("obsv-csv", false, "stream decision provenance to <dir>/obsv.csv")
		hbMS     = flag.Int("heartbeat-timeout-ms", 10000, "revoke an executor whose tenant stops reporting it for this long (0 disables the reaper)")
		cacheMB  = flag.Int64("cache-mb", 0, "per-node block-cache capacity in MB (0 disables the cache tier; caches are rebuilt cold on recovery)")
		cachePol = flag.String("cache-policy", "lru", "block-cache eviction policy: lru | 2q")
		pol      = flag.String("policy", "custody", "allocation policy: custody | quincy | wfair | locmatch (must match across restarts for replay)")
	)
	flag.Parse()

	if err := run(*addr, *dir, *seed, *nodes, *tenants, *queueCap, *roundMS, *budgetMS, *ckptN, *hbMS, *cacheMB, *cachePol, *pol, *jsonl, *csv); err != nil {
		log.Printf("custodyd: %v", err)
		os.Exit(1)
	}
}

// run boots the server, serves the API until SIGTERM/SIGINT, then drains.
// The wall clock and round ticker are injected here, at the binary edge —
// everything under internal/ stays clock-free and deterministic.
func run(addr, dir string, seed uint64, nodes, tenants, queueCap, roundMS, budgetMS, ckptN, hbMS int, cacheMB int64, cachePol, pol string, jsonl, csv bool) error {
	if nodes < 1 || tenants < 1 || queueCap < 1 || roundMS < 1 || budgetMS < 1 || ckptN < 1 {
		return fmt.Errorf("-nodes, -tenants, -queue-cap, -round-ms, -round-budget-ms, and -checkpoint-every must all be at least 1 (run 'custodyd -h' for usage)")
	}
	if hbMS < 0 {
		return fmt.Errorf("-heartbeat-timeout-ms must not be negative (0 disables the reaper)")
	}
	if cacheMB < 0 {
		return fmt.Errorf("-cache-mb must not be negative (0 disables the cache tier)")
	}
	scfg := custodyd.DefaultConfig()
	scfg.Seed = seed
	scfg.Nodes = nodes
	scfg.MaxTenants = tenants
	scfg.CacheMB = cacheMB
	scfg.CachePolicy = cachePol
	scfg.Policy = pol

	ticker := time.NewTicker(time.Duration(roundMS) * time.Millisecond)
	defer ticker.Stop()
	srv, err := custodyd.NewServer(custodyd.ServerConfig{
		Service:          scfg,
		Dir:              dir,
		QueueCap:         queueCap,
		CheckpointEvery:  ckptN,
		RoundBudget:      time.Duration(budgetMS) * time.Millisecond,
		RoundInterval:    time.Duration(roundMS) * time.Millisecond,
		HeartbeatTimeout: time.Duration(hbMS) * time.Millisecond,
		Clock:            time.Now,
		Tick:             ticker.C,
		LogJSONL:         jsonl,
		LogCSV:           csv,
	})
	if err != nil {
		return err
	}
	boot := srv.Boot()
	if boot.Recovered {
		log.Printf("custodyd: recovered %d ops from the intent log (checkpoint seq %d, verified=%v)",
			boot.ReplayedOps, boot.CheckpointSeq, boot.CheckpointVerified)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Publish the bound address (meaningful with -addr :0) so scripts and
	// CI can find an ephemeral port.
	if err := os.WriteFile(filepath.Join(dir, "addr"), []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		return err
	}
	log.Printf("custodyd: serving on http://%s (state in %s)", ln.Addr(), dir)

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("custodyd: %v: draining", s)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("custodyd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("custodyd: drained; final checkpoint and metrics in %s", dir)
	return nil
}
