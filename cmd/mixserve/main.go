// Command mixserve hosts a MIX mediator as a server speaking the QDOM wire
// protocol (the paper's client/server deployment: a mediator process, thin
// clients navigating remotely).
//
//	mixserve -addr :7713 -n 1000
//	mixserve -addr :7714 -n 1000 -shard-index 0 -shard-count 3
//
// With -shard-count K > 1 the server hosts one horizontal slice of the
// database (customers partitioned on id, orders co-partitioned), so K such
// processes form a fleet that a mixql -shards client mounts as one sharded
// view.
//
// Clients connect with the internal/wire client library; navigation
// evaluates QDOM steps remotely, with sibling scans batched adaptively
// (children ops, capped by -max-batch) while staying demand-driven.
//
// The session front end is tuned by -max-sessions, -session-idle,
// -session-mem and -session-optime (all off by default: unlimited sessions,
// exactly the pre-limits behaviour). With limits on, admission rejections
// answer with a typed busy response carrying the -retry-after hint, and
// evicted or shed sessions get a resumable token so reconnecting clients
// continue where they left off. SIGINT/SIGTERM trigger a graceful drain:
// stop accepting, let in-flight ops finish within -drain-timeout, then close
// every session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mix"
	"mix/internal/shard"
	"mix/internal/wire"
	"mix/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7713", "listen address")
		n           = flag.Int("n", 1000, "generated customers")
		maxHandles  = flag.Int("max-handles", wire.DefaultMaxHandles, "per-session node handle limit")
		maxBatch    = flag.Int("max-batch", wire.DefaultMaxBatch, "per-response frame cap for batched children ops")
		parallelism = flag.Int("parallelism", 1, "goroutines per query execution (1 = strictly sequential evaluation)")
		exchangeBuf = flag.Int("exchange-buffer", 0, "exchange operator tuple buffer (0 = engine default)")
		planCache   = flag.Int("plan-cache", 0, "memoized plans per pipeline stage (0 = plan caching off)")
		srcCache    = flag.Int("source-cache", 0, "memoized relational result sets (0 = result caching off)")
		pathIndex   = flag.Bool("path-index", false, "dataguide label-path index for getD over local XML sources")

		maxSessions = flag.Int("max-sessions", 0, "admitted session cap; above it new connections get a typed busy response (0 = unlimited)")
		sessionIdle = flag.Duration("session-idle", 0, "evict sessions idle longer than this, leaving a resumable token (0 = never)")
		sessionMem  = flag.Int64("session-mem", 0, "per-session outstanding frame bytes across held handles (0 = unlimited)")
		sessionOp   = flag.Duration("session-optime", 0, "per-session cumulative op-time quota before eviction (0 = unlimited)")
		retryAfter  = flag.Duration("retry-after", 0, "retry hint carried by busy responses (0 = built-in default)")
		drainWait   = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight ops on SIGINT/SIGTERM")

		shardIndex = flag.Int("shard-index", 0, "serve shard i of a -shard-count fleet (customers partitioned on id)")
		shardCount = flag.Int("shard-count", 1, "total shards in the fleet; 1 serves the whole database")
	)
	flag.Parse()

	med := mix.NewWith(mix.Config{
		Parallelism:    *parallelism,
		ExchangeBuffer: *exchangeBuf,
		PlanCache:      *planCache,
		SourceCache:    *srcCache,
		PathIndex:      *pathIndex,
	})
	if *shardCount > 1 {
		// One horizontal slice of the fleet: this server keeps the
		// customers hash(id) mod shard-count assigns to shard-index, with
		// their orders co-partitioned, so K mixserve shards union to the
		// unsharded database. A mixql -shards client mounts the fleet as
		// one sharded view.
		if *shardIndex < 0 || *shardIndex >= *shardCount {
			fail(fmt.Errorf("shard-index %d out of range for %d shards", *shardIndex, *shardCount))
		}
		spec := shard.Spec{Mode: shard.ModeHash, N: *shardCount}
		med.AddRelationalSource(workload.ShardScaleDB("db1", *n, 5, 42, spec, *shardIndex))
	} else {
		med.AddRelationalSource(workload.ScaleDB("db1", *n, 5, 42))
	}
	fail(med.AliasSource("&root1", "&db1.customer"))
	fail(med.AliasSource("&root2", "&db1.orders"))
	_, err := med.DefineView("rootv", workload.Q1)
	fail(err)

	l, err := net.Listen("tcp", *addr)
	fail(err)
	if *shardCount > 1 {
		fmt.Printf("mixserve: CustRec view, shard %d/%d of %d customers on %s\n",
			*shardIndex, *shardCount, *n, l.Addr())
	} else {
		fmt.Printf("mixserve: CustRec view over %d customers on %s\n", *n, l.Addr())
	}
	srv := wire.NewServer(med)
	srv.MaxHandles = *maxHandles
	srv.MaxBatch = *maxBatch
	srv.MaxSessions = *maxSessions
	srv.SessionIdle = *sessionIdle
	srv.SessionMem = *sessionMem
	srv.SessionOpTime = *sessionOp
	srv.RetryAfter = *retryAfter
	srv.ErrorLog = func(err error) { fmt.Fprintln(os.Stderr, "mixserve:", err) }

	// Serve in a goroutine so the main goroutine can watch for signals; a
	// graceful Shutdown makes Serve return wire.ErrServerClosed, which is a
	// clean exit, not a failure.
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		if !errors.Is(err, wire.ErrServerClosed) {
			fail(err)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mixserve: %v: draining (%v budget)\n", sig, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixserve: drain cut short:", err)
		}
		<-errc // Serve has returned ErrServerClosed
		st := med.SessionStats()
		fmt.Fprintf(os.Stderr, "mixserve: stopped (accepted %d, busy %d, shed %d, resumed %d)\n",
			st.Accepted, st.RejectedBusy, st.Shed, st.Resumed)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixserve:", err)
		os.Exit(1)
	}
}
