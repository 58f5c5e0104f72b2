// Command higgsd serves a sharded HIGGS summary over HTTP — a minimal
// graph stream summarization service.
//
//	higgsd -addr :8080
//	higgsd -addr :8080 -shards 8 -load summary.higgs -save summary.higgs
//	higgsd -queue-depth 8192 -commit-interval 2ms
//
// The summary is hash-partitioned by source vertex across -shards
// independent HIGGS trees (0 = one per CPU), so concurrent inserts and
// queries touching different shards never contend; see internal/shard.
// Writes go through the group-commit pipeline (internal/ingest, DESIGN.md
// §9) configured by -queue-depth and -commit-interval:
// /v1/ingest answers as soon as a batch is accepted, /v1/insert is the
// same admission followed by a flush, so it answers once the batch is
// visible.
//
// API (see internal/server and README "Running the server"):
//
//	POST /v1/insert    [{"s":1,"d":2,"w":1,"t":100}, ...]   (200 once visible: ingest + flush)
//	POST /v1/ingest    [{"s":1,"d":2,"w":1,"t":100}, ...]   (202/429, group commit)
//	POST /v1/flush     (barrier: 202-accepted edges become visible)
//	POST /v1/expire    {"cutoff":100}   (sequenced, WAL-logged retention)
//	POST /v1/delete    {"s":1,"d":2,"w":1,"t":100}   (sequenced, WAL-logged like /v1/expire)
//	POST /v2/query     [{"kind":"edge","s":1,"d":2,"ts":0,"te":200},
//	                    {"kind":"vertex_out","v":1,"ts":0,"te":200},
//	                    {"kind":"path","path":[1,2,3],"ts":0,"te":200},
//	                    {"kind":"subgraph","edges":[[1,2],[2,3]],"ts":0,"te":200}, ...]
//	                   (every read: ≤ 1 read-lock acquisition per shard, per-item errors)
//	GET  /healthz      (load-balancer probe: serving configuration, no locks)
//	GET  /v1/stats
//	GET  /v1/snapshot  (binary download)   POST /v1/snapshot (restore)
//
// Snapshots are written and read in the sharded framing only: -load and
// POST /v1/snapshot refuse an unsharded (core) snapshot on its magic.
//
// Durability (DESIGN.md §12): with -wal-dir, /v1/ingest, /v1/insert,
// /v1/expire and /v1/delete append every accepted record to a segmented
// write-ahead log in that directory and fsync before responding, so
// accepted writes survive a crash — not just an orderly shutdown. -snapshot-interval adds periodic background
// snapshots (written atomically to <wal-dir>/snapshot.higgs) after which
// the log's covered segments are truncated. On startup higgsd recovers by
// loading the latest snapshot and replaying the log tail. The WAL owns the
// durable state: -load is rejected alongside -wal-dir, and POST
// /v1/snapshot answers 409.
//
//	higgsd -wal-dir /var/lib/higgs -snapshot-interval 30s
//
// Retention (DESIGN.md §13): -retention-window runs a background loop
// expiring everything older than now−window every -retention-interval
// (default window/10). Expires go through the ingest pipeline, so they
// are sequenced against in-flight batches and — with -wal-dir — recorded
// in the log and fsync'd: crash recovery replays them at exactly their
// point in the stream, and expired edges stay expired. /healthz reports
// the loop's counters in its "retention" field.
//
//	higgsd -wal-dir /var/lib/higgs -retention-window 24h -retention-interval 1m
//
// Read caching & admission control (DESIGN.md §16): -cache-bytes installs
// a watermark-invalidated read cache on the query planner seam — repeated
// probes against unmutated shards are answered without taking any shard
// read lock, and every applied write advances the shard's mutation version
// so a hit is provably identical to an uncached probe (no TTLs).
// -admit-heavy and -admit-rate enable admission control above the planner:
// queries are classified cheap/heavy by planned probe count, each class
// runs under its own concurrency budget with a bounded wait queue, and
// per-client token buckets shed sustained overload with 429 + Retry-After.
// /healthz reports both subsystems' counters.
//
//	higgsd -cache-bytes 67108864 -admit-heavy 4 -admit-rate 200
//
// Stream analytics (DESIGN.md §17): -analytics tracks, per shard, bounded
// sets of candidate vertices — heavy sources, heavy destinations, the
// current epoch's heavy sources — inside the committer apply path: every
// insert entry point (group commit, WAL replay, replication apply) updates
// them under the same shard write lock that applies the edges. The
// candidates feed the "heavy_hitters" and "burst" kinds of /v2/query (and
// "delta_vertex" items that omit their own), whose weights are ordinary
// probes of the summary through the batch planner, read cache, and
// admission control; "delta_edge" ranks the edges a client names.
// -analytics-topk sizes the candidate sets, -analytics-epoch and
// -analytics-burst tune burst detection. /healthz reports the engine's
// counters in its "analytics" field. Works on primaries and followers
// alike, with equal weights on both.
//
//	higgsd -analytics -analytics-topk 256 -analytics-epoch 30s -analytics-burst 8
//
// Replication (DESIGN.md §15): -replication-addr serves the WAL-shipping
// feed (/repl/info, /repl/snapshot, /repl/wal) on a separate, private
// listener. A follower started with -replicate-from boots from the
// primary's snapshot (or its -replica-dir local cache), tails durable
// records, and serves every read endpoint — /v2/query, /v1/stats,
// snapshot download — while answering 403 on writes. /healthz reports
// role, applied sequence, and lag in its "replication" field.
//
//	higgsd -wal-dir /var/lib/higgs -replication-addr 127.0.0.1:9090
//	higgsd -addr :8081 -replicate-from http://127.0.0.1:9090 -replica-dir /var/lib/higgs-replica
//
// On SIGINT/SIGTERM the server stops accepting connections, drains the
// ingest pipeline (every 202-accepted batch is applied), writes a final
// snapshot into -wal-dir (truncating the log), and, if -save is set,
// writes a snapshot there too — so accepted edges survive an orderly
// shutdown even without a WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"higgs/internal/admit"
	"higgs/internal/analytics"
	"higgs/internal/ingest"
	"higgs/internal/repl"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/wal"
)

// snapshotName is the snapshot file maintained inside -wal-dir.
const snapshotName = "snapshot.higgs"

// config is the parsed and validated command line.
type config struct {
	addr, pprofAddr, load, save    string
	shards                         int
	ingest                         ingest.Config // queue depth, commit interval
	walDir                         string
	walSync, snapIvl               time.Duration
	retWin, retIvl                 time.Duration
	replAddr, replFrom, replicaDir string
	analytics                      *analytics.Config // nil without -analytics
	cacheBytes                     int64
	admitHeavy                     int
	admitRate                      float64
	version                        bool
}

// errFlags is a command-line error the flag package has already reported
// on stderr, usage included.
var errFlags = errors.New("bad command line")

// parseConfig parses and validates the command line (without the program
// name). Its errors are errFlags, flag.ErrHelp after -h printed the usage,
// or the first violated rule below.
func parseConfig(args []string) (config, error) {
	var (
		c        config
		fs       = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		mode     string
		anaOn    bool
		ana      analytics.Config
		anaEpoch time.Duration
	)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.shards, "shards", 0, "summary shard count (0 = one per CPU)")
	fs.StringVar(&c.load, "load", "", "snapshot file to restore at startup")
	fs.StringVar(&c.save, "save", "", "snapshot file to write on shutdown")
	// Frozen: the benchmark's daemon command line passes "-ingest-mode auto".
	fs.StringVar(&mode, "ingest-mode", "auto", `accepted for old command lines, selects nothing: only "auto" parses (the endpoint is the mode: /v1/ingest queues, /v1/insert answers once visible)`)
	fs.IntVar(&c.ingest.QueueDepth, "queue-depth", 4096, "per-shard async ingest queue capacity (edges)")
	fs.DurationVar(&c.ingest.CommitInterval, "commit-interval", 0, "group-commit accumulation window (0 = apply as soon as possible)")
	fs.StringVar(&c.walDir, "wal-dir", "", "durable state directory: write-ahead log segments + snapshot.higgs (empty = no crash durability)")
	fs.DurationVar(&c.walSync, "wal-sync-interval", 0, "WAL group-fsync accumulation window — bounds how long a 202 waits for its fsync (0 = sync as soon as dirty)")
	fs.DurationVar(&c.snapIvl, "snapshot-interval", 0, "background snapshot cadence; requires -wal-dir (0 = snapshot only on shutdown)")
	fs.DurationVar(&c.retWin, "retention-window", 0, "sliding retention window: periodically expire edges older than now minus this (0 = keep everything)")
	fs.DurationVar(&c.retIvl, "retention-interval", 0, "retention loop cadence; requires -retention-window (0 = window/10, at least 1s)")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private — profiles expose internals")

	fs.StringVar(&c.replAddr, "replication-addr", "", "serve the WAL-shipping replication feed (/repl/*) on this address; requires -wal-dir (empty = disabled); keep it private — it ships the raw log")
	fs.StringVar(&c.replFrom, "replicate-from", "", "run as a read-only follower of this primary replication URL (e.g. http://primary:9090): reads served, writes answer 403")
	fs.StringVar(&c.replicaDir, "replica-dir", "", "follower state directory holding the local snapshot cache, so restarts resume from disk; requires -replicate-from")

	fs.BoolVar(&anaOn, "analytics", false, "enable the stream-analytics subsystem: heavy-hitter/burst candidates tracked in the committer apply path, ranked by summary probes in the delta_vertex/delta_edge/heavy_hitters/burst kinds of /v2/query (DESIGN.md §17)")
	fs.IntVar(&ana.TrackK, "analytics-topk", 0, "tracked heavy-hitter candidates per shard and direction (0 = 128); requires -analytics")
	fs.DurationVar(&anaEpoch, "analytics-epoch", 0, "burst-detection epoch length, whole seconds (0 = 1m); requires -analytics")
	fs.Float64Var(&ana.BurstFactor, "analytics-burst", 0, "burst threshold: flag a vertex when its current-epoch weight reaches this multiple of its recent-epoch average (0 = 4.0); requires -analytics")

	fs.Int64Var(&c.cacheBytes, "cache-bytes", 0, "watermark-invalidated read cache byte budget across all shards (0 = disabled, minimum 64KiB)")
	fs.IntVar(&c.admitHeavy, "admit-heavy", 0, "concurrent heavy-query budget; enables admission control (0 = class budgets at defaults unless -admit-rate set)")
	fs.Float64Var(&c.admitRate, "admit-rate", 0, "per-client sustained queries/sec token-bucket rate; enables admission control (0 = no per-client rate limit)")
	fs.BoolVar(&c.version, "version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return c, err
		}
		return c, errFlags
	}

	follower := c.replFrom != ""
	// The first rule that holds is the error.
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		// flag stops at the first non-flag word and would drop every flag
		// after it without a word ("-analytics true -cache-bytes 5").
		{fs.NArg() > 0, fmt.Sprintf("unexpected argument %q (every flag after it was ignored)", fs.Arg(0))},
		{mode != "auto", fmt.Sprintf(`-ingest-mode %q: admission has one path and the flag selects nothing (only "auto" parses); for writes visible on return POST to /v1/insert, which answers 200 once the batch is applied`, mode)},
		{c.shards < 0, fmt.Sprintf("-shards %d, need ≥ 0", c.shards)},
		// Config treats 0 as "use the default"; an operator passing 0
		// expects no buffering, which the pipeline does not offer.
		{c.ingest.QueueDepth <= 0, fmt.Sprintf("-queue-depth %d, need ≥ 1", c.ingest.QueueDepth)},
		{c.snapIvl < 0, fmt.Sprintf("-snapshot-interval %v, need ≥ 0", c.snapIvl)},
		{c.walSync < 0, fmt.Sprintf("-wal-sync-interval %v, need ≥ 0", c.walSync)},
		{c.walDir != "" && c.load != "", "-load conflicts with -wal-dir (the WAL directory owns its snapshot; remove -load)"},
		{c.retWin < 0, fmt.Sprintf("-retention-window %v, need ≥ 0", c.retWin)},
		{c.retIvl < 0, fmt.Sprintf("-retention-interval %v, need ≥ 0", c.retIvl)},
		{c.retIvl > 0 && c.retWin == 0, "-retention-interval requires -retention-window"},
		{c.replAddr != "" && c.walDir == "", "-replication-addr requires -wal-dir (the feed ships the write-ahead log)"},
		{c.replicaDir != "" && !follower, "-replica-dir requires -replicate-from"},
		{follower && c.walDir != "", "-replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)"},
		{follower && c.load != "", "-replicate-from conflicts with -load (the boot snapshot comes from the primary)"},
		{follower && c.shards != 0, "-replicate-from conflicts with -shards (the primary's snapshot fixes the shard count)"},
		{follower && c.retWin > 0, "-replicate-from conflicts with -retention-window (retention runs on the primary and replicates as expire records)"},
		{c.snapIvl > 0 && c.walDir == "" && c.replicaDir == "", "-snapshot-interval requires -wal-dir (or -replica-dir on a follower)"},
		{c.cacheBytes < 0, fmt.Sprintf("-cache-bytes %d, need ≥ 0", c.cacheBytes)},
		{c.admitHeavy < 0, fmt.Sprintf("-admit-heavy %d, need ≥ 0", c.admitHeavy)},
		{c.admitRate < 0, fmt.Sprintf("-admit-rate %v, need ≥ 0", c.admitRate)},
		{!anaOn && (ana.TrackK != 0 || anaEpoch != 0 || ana.BurstFactor != 0), "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{ana.TrackK < 0, fmt.Sprintf("-analytics-topk %d, need ≥ 0", ana.TrackK)},
		{anaEpoch < 0 || anaEpoch%time.Second != 0, fmt.Sprintf("-analytics-epoch %v, need whole seconds ≥ 1s (or 0 for the default)", anaEpoch)},
		{ana.BurstFactor != 0 && ana.BurstFactor < 1, fmt.Sprintf("-analytics-burst %v, need ≥ 1 (or 0 for the default)", ana.BurstFactor)},
	} {
		if rule.broken {
			return c, errors.New(rule.msg)
		}
	}
	if anaOn {
		ana.EpochSeconds = int64(anaEpoch / time.Second)
		c.analytics = &ana
	}
	return c, nil
}

func main() {
	c, err := parseConfig(os.Args[1:])
	switch {
	case errors.Is(err, flag.ErrHelp):
		return
	case err == errFlags:
		os.Exit(2)
	case err != nil:
		log.Fatalf("higgsd: %v", err)
	}
	if c.version {
		fmt.Printf("higgsd %s\n", server.BuildVersion())
		return
	}
	run := runPrimary
	if c.replFrom != "" {
		run = runFollower
	}
	if err := run(c); err != nil {
		log.Fatalf("higgsd: %v", err)
	}
}

// serverOptions maps the flags both roles share onto server.Options,
// logging each optional subsystem they switch on.
func (c config) serverOptions() (server.Options, error) {
	opts := server.Options{Ingest: c.ingest, CacheBytes: c.cacheBytes, Analytics: c.analytics}
	if c.cacheBytes > 0 {
		log.Printf("higgsd: read cache enabled (%d bytes)", c.cacheBytes)
	}
	if c.admitHeavy > 0 || c.admitRate > 0 {
		ctrl, err := admit.New(admit.Config{HeavyConcurrency: c.admitHeavy, Rate: c.admitRate})
		if err != nil {
			return opts, err
		}
		opts.Admission = ctrl
		log.Printf("higgsd: admission control enabled (heavy=%d rate=%v/s)", c.admitHeavy, c.admitRate)
	}
	if c.analytics != nil {
		cfg := c.analytics.WithDefaults()
		log.Printf("higgsd: analytics enabled (topk=%d epoch=%ds burst=%.1f)", cfg.TrackK, cfg.EpochSeconds, cfg.BurstFactor)
	}
	return opts, nil
}

// runPrimary serves a writable summary: obtain it (fresh, -load, or the
// -wal-dir snapshot), open the server over it — which replays the log —
// start the background loops, serve.
func runPrimary(c config) error {
	opts, err := c.serverOptions()
	if err != nil {
		return err
	}
	var (
		wlog     *wal.Log
		snapper  *ingest.Snapshotter // both loops need the server's pipeline,
		retainer *ingest.Retainer    // so they are built after server.Open
		replSrv  *http.Server
		snapPath = c.load
	)
	if c.walDir != "" {
		// Recovery: latest snapshot + WAL tail replay (DESIGN.md §12).
		snapPath = filepath.Join(c.walDir, snapshotName)
		if _, err := os.Stat(snapPath); errors.Is(err, os.ErrNotExist) {
			snapPath = "" // first boot of this directory
		}
		// The WAL group-syncs on its own cadence (-wal-sync-interval): one
		// fsync covers everything accepted during the accumulation window,
		// mirroring the role -commit-interval plays for shard locks. The
		// two are separate knobs because every 202 waits for its covering
		// fsync — a long commit window must not hold admission hostage.
		if wlog, err = wal.Open(wal.Config{Dir: c.walDir, SyncInterval: c.walSync}); err != nil {
			return err
		}
		defer func() {
			if err := wlog.Close(); err != nil {
				log.Printf("higgsd: wal close: %v", err)
			}
		}()
		opts.Ingest.WAL = wlog
		opts.Durability = func() ingest.DurabilityStatus { return snapper.Status() }
	}
	if c.retWin > 0 {
		opts.Retention = func() ingest.RetentionStatus { return retainer.Status() }
	}
	sum, err := buildSummary(snapPath, c.shards)
	if err != nil {
		return err
	}
	if c.replAddr != "" {
		// The replication feed gets its own listener: it ships raw WAL
		// bytes and whole snapshots, an operator surface never exposed
		// alongside the client API.
		prim := repl.NewPrimary(sum, wlog)
		opts.Replication = prim.Status
		replSrv = &http.Server{Addr: c.replAddr, Handler: prim.Handler()}
	}
	srv, err := server.Open(sum, opts)
	if err != nil {
		return err
	}
	if wlog != nil {
		log.Printf("higgsd: recovered from %s (items=%d, wal replayed %d edges)", c.walDir, sum.Items(), srv.Replayed())
		snapper = ingest.NewSnapshotter(sum, srv.Pipeline(), wlog, filepath.Join(c.walDir, snapshotName), c.snapIvl,
			func(err error) { log.Printf("higgsd: background snapshot: %v", err) })
		snapper.Start()
	}
	if c.retWin > 0 {
		// srv.Pipeline (not its value now): a snapshot upload swaps the
		// serving pipeline, and retention must follow the live one.
		retainer, err = ingest.NewRetainer(srv.Pipeline, ingest.RetentionConfig{
			Window:   c.retWin,
			Interval: c.retIvl,
			OnError:  func(err error) { log.Printf("higgsd: retention: %v", err) },
		})
		if err != nil {
			return err
		}
		retainer.Start()
	}
	if replSrv != nil {
		go func() {
			log.Printf("higgsd: replication feed listening on %s", c.replAddr)
			if err := replSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("higgsd: replication: %v", err)
			}
		}()
	}
	banner := fmt.Sprintf("listening on %s (shards=%d items=%d wal=%v)",
		c.addr, sum.NumShards(), sum.Items(), wlog != nil)
	return c.serve(srv, banner, func(ctx context.Context) {
		if replSrv != nil {
			if err := replSrv.Shutdown(ctx); err != nil {
				log.Printf("higgsd: replication shutdown: %v", err)
			}
		}
		// Drain accepted-but-uncommitted ingest batches before snapshotting:
		// a 202 means the edge survives an orderly shutdown.
		if retainer != nil {
			retainer.Close() // no expires may race the drain or the final snapshot
		}
		if snapper != nil {
			snapper.Close() // stop the background loop before the final snapshot
		}
		srv.Close()
		if snapper != nil {
			// Final covering snapshot: the next boot loads it and replays an
			// empty (truncated) tail.
			if err := snapper.Snap(); err != nil {
				log.Printf("higgsd: final snapshot: %v", err)
			} else {
				log.Printf("higgsd: snapshot saved to %s", filepath.Join(c.walDir, snapshotName))
			}
		}
	})
}

// runFollower is the -replicate-from role: boot a replication follower
// (local cache or primary snapshot), open a read-only server over its
// summary, then tail the primary until shutdown. A resync — the primary
// truncated past our resume point — swaps the served summary atomically
// via server.ReplaceSummary.
func runFollower(c config) error {
	var srv *server.Server // set before the tail loop, OnSwap's only caller, starts
	f, err := repl.NewFollower(repl.FollowerConfig{
		Source:           c.replFrom,
		Dir:              c.replicaDir,
		SnapshotInterval: c.snapIvl,
		OnError:          func(err error) { log.Printf("higgsd: replication: %v", err) },
		OnSwap: func(old, new *shard.Summary) {
			if err := srv.ReplaceSummary(new); err != nil {
				log.Printf("higgsd: resync swap: %v", err)
				return
			}
			log.Printf("higgsd: resynced from primary snapshot (items=%d)", new.Items())
		},
	})
	if err != nil {
		return err
	}
	if err := f.Boot(); err != nil {
		return fmt.Errorf("follower boot: %v", err)
	}
	// A follower's summary applies tailed records through the same shard
	// entry points as ingest, so with -analytics the candidate sets track
	// everything replicated after boot (the boot snapshot itself is served
	// but not tracked — DESIGN.md §17).
	opts, err := c.serverOptions()
	if err != nil {
		return err
	}
	opts.Replica = true
	opts.Replication = f.Status
	if srv, err = server.Open(f.Summary(), opts); err != nil {
		return err
	}
	if err := f.Start(); err != nil {
		return err
	}
	banner := fmt.Sprintf("follower of %s listening on %s (shards=%d items=%d applied_seq=%d)",
		c.replFrom, c.addr, srv.Summary().NumShards(), srv.Summary().Items(), f.Status().AppliedSeq)
	return c.serve(srv, banner, func(context.Context) {
		f.Close() // stop tailing (and swapping) before touching the summary
		srv.Close()
	})
}

// serve is the tail both roles end in: start the optional pprof listener
// and the API listener (logging banner once it is about to accept), wait
// for SIGINT/SIGTERM, stop accepting with a 5 s grace, run the role's
// drain — which must leave srv closed, so its summary is final — and then
// write the -save snapshot.
func (c config) serve(srv *server.Server, banner string, drain func(ctx context.Context)) error {
	if c.pprofAddr != "" {
		// The API server uses its own mux, so DefaultServeMux carries only
		// the pprof handlers — served on a separate listener that is never
		// exposed alongside the public API.
		go func() {
			log.Printf("higgsd: pprof listening on %s", c.pprofAddr)
			if err := http.ListenAndServe(c.pprofAddr, nil); err != nil {
				log.Printf("higgsd: pprof: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{Addr: c.addr, Handler: srv.Handler()}
	go func() {
		log.Printf("higgsd: %s", banner)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("higgsd: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Println("higgsd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("higgsd: shutdown: %v", err)
	}
	drain(ctx)
	if c.save != "" {
		if err := ingest.WriteSnapshot(srv.Summary(), c.save); err != nil {
			return fmt.Errorf("save: %v", err)
		}
		log.Printf("higgsd: snapshot saved to %s", c.save)
	}
	return nil
}

// buildSummary restores the snapshot at load, or builds a fresh summary
// when load is empty.
func buildSummary(load string, shards int) (*shard.Summary, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		defer f.Close()
		sum, err := shard.Read(f)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", load, err)
		}
		// The snapshot fixes the shard count; an explicit conflicting
		// -shards is a configuration error, not something to silently
		// repartition (edges cannot move between trees after the fact).
		if shards > 0 && shards != sum.NumShards() {
			return nil, fmt.Errorf("load %s: snapshot has %d shards, -shards %d requested",
				load, sum.NumShards(), shards)
		}
		return sum, nil
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg := shard.DefaultConfig()
	cfg.Shards = shards
	return shard.New(cfg)
}
