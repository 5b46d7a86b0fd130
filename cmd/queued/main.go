// Command queued serves a multi-tenant namespace of sharded queue
// fabrics over TCP: the repository's wait-free queue as a network
// service. Connections lease fabric handles through the dynamic registry
// per (connection, queue), pipelined requests are batched into single
// fabric passes, and a bounded per-connection window turns overload into
// explicit BUSY replies. Clients address the default queue with the
// pre-namespace opcodes or OPEN named queues — each its own fabric,
// created on first use, capped by -max-queues, and torn down after
// -queue-idle without bound sessions or backlog. Every queue's fabric
// keeps the -shards count it was built with; its shards' ordering trees
// grow as sessions lease handles. An optional HTTP listener (-statsz)
// exposes the introspection surface:
//
//	/statsz    full JSON snapshot: service counters, per-shard routing
//	           traffic, handle-lease churn, per-queue stats (shard count,
//	           topology epoch, tree growths, latency summaries)
//	/healthz   liveness: 200 + uptime
//	/varz      build and process identity, configured options, flag values
//	/metricsz  Prometheus text exposition (counters, per-queue gauges,
//	           per-(queue, op) latency summaries)
//	/tracez    bounded control-plane event trace (session and queue
//	           lifecycle, sampled BUSY replies) as JSON
//	/spanz     request-trace exemplar reservoir: the slowest and most
//	           recent traced requests, each decomposed into per-stage
//	           durations (send traced frames with the client's
//	           EnqueueTraced/DequeueTraced, or run the repo benchmark
//	           traced: bash bench/run.sh --workload svc-singles --trace 1)
//	/debug/pprof/...  net/http/pprof profiles, only with -pprof
//
// Observability (latency histograms + event trace) is on by default and
// costs under the T15 budget; -obs=false turns it off for overhead
// comparisons.
//
// Usage:
//
//	queued -addr 127.0.0.1:7474 -shards 8 -backend core
//	queued -addr 127.0.0.1:0 -addr-file /tmp/queued.addr   # ephemeral port
//	queued -statsz 127.0.0.1:7475      # curl http://127.0.0.1:7475/statsz
//	queued -statsz 127.0.0.1:7475 -pprof                   # + profiling
//	queued -max-queues 128 -queue-idle 10m                 # tenant knobs
//
// The repo benchmark (bash bench/run.sh; see bench/README.md) drives a
// queued child with open-loop, closed and solo load and checks
// conservation and order.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7474", "TCP listen address (use port 0 for an ephemeral port)")
		addrFile  = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts using an ephemeral port)")
		shards    = flag.Int("shards", 4, "shard count of the backing fabric")
		backend   = flag.String("backend", "core", "per-shard queue backend: core or bounded")
		handles   = flag.Int("max-handles", 0, "leasable handle slots = max concurrent sessions (0 = fabric default)")
		window    = flag.Int("window", 64, "per-connection in-flight request window (overflow gets BUSY; also the most requests one batch pass executes)")
		idle      = flag.Duration("idle", 2*time.Minute, "reap sessions idle this long (0 disables)")
		maxFrame  = flag.Int("max-frame", server.DefaultMaxFrame, "max request frame size in bytes")
		maxQueues = flag.Int("max-queues", server.DefaultMaxQueues, "max named queues (each its own fabric; OPEN beyond the cap is refused)")
		queueIdle = flag.Duration("queue-idle", 5*time.Minute, "tear down named queues unbound and empty this long (0 disables)")
		statsz    = flag.String("statsz", "", "HTTP listen address for the /statsz JSON endpoint (empty disables)")
		obsOn     = flag.Bool("obs", true, "record latency histograms and control-plane trace events")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -statsz listener")
	)
	flag.Parse()
	if err := run(*addr, *addrFile, *shards, *backend, *handles, *window, *idle,
		*maxFrame, *maxQueues, *queueIdle, *statsz, *obsOn, *pprofOn); err != nil {
		fmt.Fprintln(os.Stderr, "queued:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, shards int, backend string, handles, window int,
	idle time.Duration, maxFrame, maxQueues int, queueIdle time.Duration, statsz string,
	obsOn, pprofOn bool) error {
	q, err := newFabric(shards, backend, handles)
	if err != nil {
		return err
	}
	srv, err := server.Serve(addr, q,
		server.WithWindow(window),
		server.WithIdleTimeout(idle),
		server.WithMaxFrame(maxFrame),
		server.WithMaxQueues(maxQueues),
		server.WithQueueIdleTimeout(queueIdle),
		server.WithObservability(obsOn))
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("queued: listening on %s (%d shards, %s backend, %d handle slots, %d named queues max)\n",
		srv.Addr(), q.Shards(), q.Backend(), q.MaxHandles(), maxQueues)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(srv.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}

	if statsz != "" {
		mux := http.NewServeMux()
		mux.Handle("/statsz", srv.StatszHandler())
		mux.Handle("/healthz", srv.HealthzHandler())
		mux.Handle("/metricsz", srv.MetricszHandler())
		mux.Handle("/tracez", srv.TracezHandler())
		mux.Handle("/spanz", srv.SpanzHandler())
		mux.Handle("/varz", srv.VarzHandler(map[string]string{
			"addr":    srv.Addr().String(),
			"statsz":  statsz,
			"backend": backend,
			"obs":     fmt.Sprint(obsOn),
			"pprof":   fmt.Sprint(pprofOn),
		}))
		if pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		hsrv := &http.Server{Addr: statsz, Handler: mux}
		go func() {
			if err := hsrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "queued: statsz:", err)
			}
		}()
		defer hsrv.Close()
		fmt.Printf("queued: /statsz /healthz /varz /metricsz /tracez /spanz on http://%s\n", statsz)
		if pprofOn {
			fmt.Printf("queued: pprof on http://%s/debug/pprof/\n", statsz)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("queued: %v — shutting down\n", s)
	snap := srv.Snapshot()
	fmt.Printf("queued: served %d sessions (%d reaped, %d denied), %d requests (%d busy), %.1f ops/batch\n",
		snap.Server.SessionsTotal, snap.Server.SessionsReaped, snap.Server.SessionsDenied,
		snap.Server.Requests, snap.Server.Busy, snap.Server.OpsPerBatch)
	fmt.Printf("queued: %d queues live (%d opened, %d deleted, %d idle-expired)\n",
		snap.Server.QueuesOpen, snap.Server.QueuesOpened, snap.Server.QueuesDeleted, snap.Server.QueuesExpired)
	fmt.Printf("queued: default queue at %d shards, %d-leaf trees (epoch %d)\n",
		snap.Fabric.Shards, snap.Fabric.Resize.Leaves, snap.Fabric.Resize.Epoch)
	return nil
}

// newFabric builds the backing sharded queue from the flag surface.
func newFabric(shards int, backend string, handles int) (*shard.Queue[[]byte], error) {
	if backend != string(shard.BackendCore) && backend != string(shard.BackendBounded) {
		return nil, fmt.Errorf("unknown -backend %q (want core or bounded)", backend)
	}
	opts := []shard.Option{shard.WithBackend(shard.Backend(backend))}
	if handles > 0 {
		opts = append(opts, shard.WithMaxHandles(handles))
	}
	return shard.New[[]byte](shards, opts...)
}
