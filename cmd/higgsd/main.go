// Command higgsd serves a sharded HIGGS summary over HTTP — a minimal
// graph stream summarization service.
//
//	higgsd -addr :8080
//	higgsd -addr :8080 -shards 8 -load summary.higgs -save summary.higgs
//	higgsd -ingest-mode async -queue-depth 8192 -commit-interval 2ms
//
// The summary is hash-partitioned by source vertex across -shards
// independent HIGGS trees (0 = one per CPU), so concurrent inserts and
// queries touching different shards never contend; see internal/shard.
// Writes go through the group-commit pipeline (internal/ingest, DESIGN.md
// §9) configured by -ingest-mode, -queue-depth, and -commit-interval:
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
//	POST /v1/delete    {"s":1,"d":2,"w":1,"t":100}
//	GET  /v1/edge?s=1&d=2&ts=0&te=200
//	GET  /v1/vertex?v=1&dir=out&ts=0&te=200
//	GET  /v1/path?v=1,2,3&ts=0&te=200
//	POST /v1/subgraph  {"edges":[[1,2],[2,3]],"ts":0,"te":200}
//	POST /v2/query     [{"kind":"edge","s":1,"d":2,"ts":0,"te":200}, ...]
//	                   (batch: ≤ 1 read-lock acquisition per shard, per-item errors)
//	GET  /healthz      (load-balancer probe: shard count + ingest mode, no locks)
//	GET  /v1/stats
//	GET  /v1/snapshot  (binary download)   POST /v1/snapshot (restore)
//
// Snapshots are written in the sharded framing; -load also accepts legacy
// unsharded snapshots, which come up as a single shard.
//
// Durability (DESIGN.md §12): with -wal-dir, /v1/ingest and /v1/insert
// append every accepted batch to a segmented write-ahead log in that
// directory and fsync before responding, so accepted edges survive a crash
// — not just an orderly shutdown. -snapshot-interval adds periodic background
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
// Stream analytics (DESIGN.md §17): -analytics maintains per-shard
// count-min sketches and bounded candidate sets inside the committer apply
// path — every write entry point (sync insert, group commit, WAL replay,
// replication apply, delete) updates them under the same shard write lock
// that applies the edges, so the sketches can never drift from the served
// summary. They answer four additional /v2/query kinds: "heavy_hitters"
// and "burst" in O(k) without touching a shard lock, and "delta_vertex" /
// "delta_edge" (two-window change ranking) through the normal batch
// planner, read cache, and admission control. -analytics-topk sizes the
// tracked candidate sets, -analytics-epoch and -analytics-burst tune burst
// detection. /healthz reports the engine's counters in its "analytics"
// field. Works on primaries and followers alike.
//
//	higgsd -analytics -analytics-topk 256 -analytics-epoch 30s -analytics-burst 8
//
// Replication (DESIGN.md §15): -replication-addr serves the WAL-shipping
// feed (/repl/info, /repl/snapshot, /repl/wal) on a separate, private
// listener. A follower started with -replicate-from boots from the
// primary's snapshot (or its -replica-dir local cache), tails durable
// records, and serves every read endpoint — /v1 queries, /v2/query,
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
	"sync/atomic"
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

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		shards  = flag.Int("shards", 0, "summary shard count (0 = one per CPU)")
		load    = flag.String("load", "", "snapshot file to restore at startup")
		save    = flag.String("save", "", "snapshot file to write on shutdown")
		mode    = flag.String("ingest-mode", "auto", `/v1/ingest admission: "sync", "async", or "auto"`)
		depth   = flag.Int("queue-depth", 4096, "per-shard async ingest queue capacity (edges)")
		commit  = flag.Duration("commit-interval", 0, "group-commit accumulation window (0 = apply as soon as possible)")
		walDir  = flag.String("wal-dir", "", "durable state directory: write-ahead log segments + snapshot.higgs (empty = no crash durability)")
		walSync = flag.Duration("wal-sync-interval", 0, "WAL group-fsync accumulation window — bounds how long a 202 waits for its fsync (0 = sync as soon as dirty)")
		snapIvl = flag.Duration("snapshot-interval", 0, "background snapshot cadence; requires -wal-dir (0 = snapshot only on shutdown)")
		retWin  = flag.Duration("retention-window", 0, "sliding retention window: periodically expire edges older than now minus this (0 = keep everything)")
		retIvl  = flag.Duration("retention-interval", 0, "retention loop cadence; requires -retention-window (0 = window/10, at least 1s)")
		pprof   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled); keep it private — profiles expose internals")

		replAddr   = flag.String("replication-addr", "", "serve the WAL-shipping replication feed (/repl/*) on this address; requires -wal-dir (empty = disabled); keep it private — it ships the raw log")
		replFrom   = flag.String("replicate-from", "", "run as a read-only follower of this primary replication URL (e.g. http://primary:9090): reads served, writes answer 403")
		replicaDir = flag.String("replica-dir", "", "follower state directory holding the local snapshot cache, so restarts resume from disk; requires -replicate-from")

		anaOn    = flag.Bool("analytics", false, "enable the stream-analytics subsystem: heavy-hitter/burst sketches maintained in the committer apply path, served by the delta_vertex/delta_edge/heavy_hitters/burst kinds of /v2/query (DESIGN.md §17)")
		anaTopK  = flag.Int("analytics-topk", 0, "tracked heavy-hitter candidates per shard and direction (0 = 128); requires -analytics")
		anaEpoch = flag.Duration("analytics-epoch", 0, "burst-detection epoch length, whole seconds (0 = 1m); requires -analytics")
		anaBurst = flag.Float64("analytics-burst", 0, "burst threshold: flag a vertex when its current-epoch weight reaches this multiple of its recent-epoch average (0 = 4.0); requires -analytics")

		cacheBytes = flag.Int64("cache-bytes", 0, "watermark-invalidated read cache byte budget across all shards (0 = disabled, minimum 64KiB)")
		admitHeavy = flag.Int("admit-heavy", 0, "concurrent heavy-query budget; enables admission control (0 = class budgets at defaults unless -admit-rate set)")
		admitRate  = flag.Float64("admit-rate", 0, "per-client sustained queries/sec token-bucket rate; enables admission control (0 = no per-client rate limit)")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("higgsd %s\n", server.BuildVersion())
		return
	}

	imode, err := ingest.ParseMode(*mode)
	if err != nil {
		log.Fatalf("higgsd: -ingest-mode: %v", err)
	}
	if *depth <= 0 {
		// Config treats 0 as "use the default"; an operator passing 0
		// expects no buffering, which the pipeline does not offer.
		log.Fatalf("higgsd: -queue-depth %d, need ≥ 1", *depth)
	}
	switch {
	case *snapIvl < 0:
		log.Fatalf("higgsd: -snapshot-interval %v, need ≥ 0", *snapIvl)
	case *walSync < 0:
		log.Fatalf("higgsd: -wal-sync-interval %v, need ≥ 0", *walSync)
	case *walDir != "" && *load != "":
		log.Fatal("higgsd: -load conflicts with -wal-dir (the WAL directory owns its snapshot; remove -load)")
	case *retWin < 0:
		log.Fatalf("higgsd: -retention-window %v, need ≥ 0", *retWin)
	case *retIvl < 0:
		log.Fatalf("higgsd: -retention-interval %v, need ≥ 0", *retIvl)
	case *retIvl > 0 && *retWin == 0:
		log.Fatal("higgsd: -retention-interval requires -retention-window")
	case *replAddr != "" && *walDir == "":
		log.Fatal("higgsd: -replication-addr requires -wal-dir (the feed ships the write-ahead log)")
	case *replicaDir != "" && *replFrom == "":
		log.Fatal("higgsd: -replica-dir requires -replicate-from")
	case *replFrom != "" && *walDir != "":
		log.Fatal("higgsd: -replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)")
	case *replFrom != "" && *load != "":
		log.Fatal("higgsd: -replicate-from conflicts with -load (the boot snapshot comes from the primary)")
	case *replFrom != "" && *shards != 0:
		log.Fatal("higgsd: -replicate-from conflicts with -shards (the primary's snapshot fixes the shard count)")
	case *replFrom != "" && *retWin > 0:
		log.Fatal("higgsd: -replicate-from conflicts with -retention-window (retention runs on the primary and replicates as expire records)")
	case *replFrom != "" && *replAddr != "":
		log.Fatal("higgsd: -replicate-from conflicts with -replication-addr (chained replication is not supported)")
	case *snapIvl > 0 && *walDir == "" && *replicaDir == "":
		log.Fatal("higgsd: -snapshot-interval requires -wal-dir (or -replica-dir on a follower)")
	case *cacheBytes < 0:
		log.Fatalf("higgsd: -cache-bytes %d, need ≥ 0", *cacheBytes)
	case *admitHeavy < 0:
		log.Fatalf("higgsd: -admit-heavy %d, need ≥ 0", *admitHeavy)
	case *admitRate < 0:
		log.Fatalf("higgsd: -admit-rate %v, need ≥ 0", *admitRate)
	case !*anaOn && (*anaTopK != 0 || *anaEpoch != 0 || *anaBurst != 0):
		log.Fatal("higgsd: -analytics-topk/-analytics-epoch/-analytics-burst require -analytics")
	case *anaTopK < 0:
		log.Fatalf("higgsd: -analytics-topk %d, need ≥ 0", *anaTopK)
	case *anaEpoch != 0 && *anaEpoch < time.Second:
		log.Fatalf("higgsd: -analytics-epoch %v, need whole seconds ≥ 1s (or 0 for the default)", *anaEpoch)
	case *anaBurst != 0 && *anaBurst < 1:
		log.Fatalf("higgsd: -analytics-burst %v, need ≥ 1 (or 0 for the default)", *anaBurst)
	}

	var anaCfg *analytics.Config
	if *anaOn {
		anaCfg = &analytics.Config{
			TrackK:       *anaTopK,
			EpochSeconds: int64(*anaEpoch / time.Second),
			BurstFactor:  *anaBurst,
		}
	}

	common := daemon{
		addr: *addr, pprofAddr: *pprof, save: *save,
		cacheBytes: *cacheBytes, admitHeavy: *admitHeavy, admitRate: *admitRate,
	}
	if *replFrom != "" {
		runFollower(common, *replFrom, *replicaDir, *snapIvl, anaCfg)
		return
	}
	icfg := ingest.DefaultConfig()
	icfg.Mode = imode
	icfg.QueueDepth = *depth
	icfg.CommitInterval = *commit

	var (
		sum   *shard.Summary
		wlog  *wal.Log
		eng   *analytics.Engine
		snapP string
	)
	if *walDir != "" {
		// Recovery: latest snapshot + WAL tail replay (DESIGN.md §12).
		snapP = filepath.Join(*walDir, snapshotName)
		sum, err = loadOrNewSummary(snapP, *shards)
		if err != nil {
			log.Fatalf("higgsd: %v", err)
		}
		if anaCfg != nil {
			// The engine observes the summary from before the WAL replay, so
			// the sketches absorb recovered edges exactly like live ones
			// (DESIGN.md §17). The server adopts it after construction.
			acfg := *anaCfg
			acfg.Shards = sum.NumShards()
			acfg.Seed = sum.Config().Core.Seed
			if eng, err = analytics.New(acfg); err != nil {
				log.Fatalf("higgsd: analytics: %v", err)
			}
			sum.SetApplyObserver(eng)
		}
		// The WAL group-syncs on its own cadence (-wal-sync-interval): one
		// fsync covers everything accepted during the accumulation window,
		// mirroring the role -commit-interval plays for shard locks. The
		// two are separate knobs because every 202 waits for its covering
		// fsync — a long commit window must not hold admission hostage.
		wlog, err = wal.Open(wal.Config{Dir: *walDir, SyncInterval: *walSync})
		if err != nil {
			log.Fatalf("higgsd: %v", err)
		}
		replayed, err := ingest.Recover(sum, wlog)
		if err != nil {
			log.Fatalf("higgsd: %v", err)
		}
		log.Printf("higgsd: recovered from %s (items=%d, wal replayed %d edges)",
			*walDir, sum.Items(), replayed)
		icfg.WAL = wlog
	} else if sum, err = buildSummary(*load, *shards); err != nil {
		log.Fatalf("higgsd: %v", err)
	}

	srv, err := server.NewWithIngest(sum, icfg)
	if err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	if err := common.setupReadPath(srv); err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	if anaCfg != nil {
		if eng != nil {
			srv.SetAnalyticsEngine(eng) // the WAL-recovery engine already observes sum
		} else if err := srv.SetAnalytics(*anaCfg); err != nil {
			log.Fatalf("higgsd: analytics: %v", err)
		}
		logAnalytics(anaCfg)
	}
	var snapper *ingest.Snapshotter
	if wlog != nil {
		snapper = ingest.NewSnapshotter(sum, srv.Pipeline(), wlog, snapP, *snapIvl,
			func(err error) { log.Printf("higgsd: background snapshot: %v", err) })
		snapper.Start()
		srv.SetDurability(func() server.DurabilityStatus {
			st := server.DurabilityStatus{
				WAL:         true,
				AppendedSeq: wlog.LastSeq(),
				SyncedSeq:   wlog.SyncedSeq(),
				Segments:    wlog.Segments(),
				SnapshotSeq: snapper.LastSeq(),
			}
			if at := snapper.LastTime(); !at.IsZero() {
				st.SnapshotUnix = at.Unix()
			}
			return st
		})
	}
	var retainer *ingest.Retainer
	if *retWin > 0 {
		// srv.Pipeline (not its value now): a snapshot upload swaps the
		// serving pipeline, and retention must follow the live one.
		retainer, err = ingest.NewRetainer(srv.Pipeline, ingest.RetentionConfig{
			Window:   *retWin,
			Interval: *retIvl,
			OnError:  func(err error) { log.Printf("higgsd: retention: %v", err) },
		})
		if err != nil {
			log.Fatalf("higgsd: %v", err)
		}
		retainer.Start()
		srv.SetRetention(func() server.RetentionStatus {
			st := server.RetentionStatus{
				Enabled:         true,
				WindowSeconds:   int64(retainer.Window() / time.Second),
				IntervalSeconds: int64(retainer.Interval() / time.Second),
				Runs:            retainer.Runs(),
				Dropped:         retainer.Dropped(),
				LastCutoff:      retainer.LastCutoff(),
			}
			if at := retainer.LastTime(); !at.IsZero() {
				st.LastUnix = at.Unix()
			}
			return st
		})
	}
	var replSrv *http.Server
	if *replAddr != "" {
		// The replication feed gets its own listener: it ships raw WAL
		// bytes and whole snapshots, an operator surface never exposed
		// alongside the client API.
		replSrv = &http.Server{Addr: *replAddr, Handler: repl.NewPrimary(sum, wlog).Handler()}
		go func() {
			log.Printf("higgsd: replication feed listening on %s", *replAddr)
			if err := replSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("higgsd: replication: %v", err)
			}
		}()
		srv.SetReplication(func() server.ReplicationStatus {
			return server.ReplicationStatus{Role: server.RolePrimary, PrimarySeq: wlog.SyncedSeq()}
		})
	}
	banner := fmt.Sprintf("listening on %s (shards=%d items=%d ingest=%s wal=%v)",
		*addr, sum.NumShards(), sum.Items(), imode, *walDir != "")
	common.serve(srv, banner, func(ctx context.Context) {
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
				log.Printf("higgsd: snapshot saved to %s", snapP)
			}
		}
	})
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			log.Printf("higgsd: wal close: %v", err)
		}
	}
}

// daemon holds the flags the primary and the follower entrypoints share,
// and the part of a higgsd process's life that is the same for both.
type daemon struct {
	addr, pprofAddr, save string
	cacheBytes            int64
	admitHeavy            int
	admitRate             float64
}

// serve is the tail both roles end in: start the optional pprof listener
// and the API listener (logging banner once it is about to accept), wait
// for SIGINT/SIGTERM, stop accepting with a 5 s grace, run the role's
// drain — which must leave srv closed, so its summary is final — and then
// write the -save snapshot.
func (d daemon) serve(srv *server.Server, banner string, drain func(ctx context.Context)) {
	if d.pprofAddr != "" {
		// The API server uses its own mux, so DefaultServeMux carries only
		// the pprof handlers — served on a separate listener that is never
		// exposed alongside the public API.
		go func() {
			log.Printf("higgsd: pprof listening on %s", d.pprofAddr)
			if err := http.ListenAndServe(d.pprofAddr, nil); err != nil {
				log.Printf("higgsd: pprof: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{Addr: d.addr, Handler: srv.Handler()}
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
	if d.save != "" {
		if err := ingest.WriteSnapshot(srv.Summary(), d.save); err != nil {
			log.Fatalf("higgsd: save: %v", err)
		}
		log.Printf("higgsd: snapshot saved to %s", d.save)
	}
}

// setupReadPath installs the optional read cache and admission controller
// (DESIGN.md §16) on a constructed server — shared between the primary and
// follower entrypoints, since a follower's read path benefits from both at
// least as much (that is where the read traffic scales out to).
func (d daemon) setupReadPath(srv *server.Server) error {
	if d.cacheBytes > 0 {
		if err := srv.SetReadCache(d.cacheBytes); err != nil {
			return err
		}
		log.Printf("higgsd: read cache enabled (%d bytes)", d.cacheBytes)
	}
	if d.admitHeavy > 0 || d.admitRate > 0 {
		ctrl, err := admit.New(admit.Config{
			HeavyConcurrency: d.admitHeavy,
			Rate:             d.admitRate,
		})
		if err != nil {
			return err
		}
		srv.SetAdmission(ctrl)
		log.Printf("higgsd: admission control enabled (heavy=%d rate=%v/s)", d.admitHeavy, d.admitRate)
	}
	return nil
}

// logAnalytics reports the effective analytics knobs, resolving the zero
// values to the engine's documented defaults.
func logAnalytics(cfg *analytics.Config) {
	topk, epoch, burst := cfg.TrackK, cfg.EpochSeconds, cfg.BurstFactor
	if topk == 0 {
		topk = analytics.DefaultTrackK
	}
	if epoch == 0 {
		epoch = analytics.DefaultEpochSeconds
	}
	if burst == 0 {
		burst = analytics.DefaultBurstFactor
	}
	log.Printf("higgsd: analytics enabled (topk=%d epoch=%ds burst=%.1f)", topk, epoch, burst)
}

// runFollower is the -replicate-from entrypoint: boot a replication
// follower (local cache or primary snapshot + WAL tail), serve its summary
// read-only, and keep tailing until shutdown. A resync — the primary
// truncated past our resume point — swaps the served summary atomically
// via server.ReplaceSummary.
func runFollower(d daemon, source, dir string, snapIvl time.Duration, anaCfg *analytics.Config) {
	// The server is built after the follower boots (it serves the booted
	// summary), but a resync can fire as soon as the tail loop starts; the
	// swap callback waits for the pointer. ReplaceSummary no-ops when the
	// server was already constructed on the swapped-in summary.
	var srvPtr atomic.Pointer[server.Server]
	f, err := repl.NewFollower(repl.FollowerConfig{
		Source:           source,
		Dir:              dir,
		SnapshotInterval: snapIvl,
		OnError:          func(err error) { log.Printf("higgsd: replication: %v", err) },
		OnSwap: func(old, new *shard.Summary) {
			for srvPtr.Load() == nil {
				time.Sleep(10 * time.Millisecond)
			}
			if err := srvPtr.Load().ReplaceSummary(new); err != nil {
				log.Printf("higgsd: resync swap: %v", err)
				return
			}
			log.Printf("higgsd: resynced from primary snapshot (items=%d)", new.Items())
		},
	})
	if err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	if err := f.Start(); err != nil {
		log.Fatalf("higgsd: follower boot: %v", err)
	}
	srv, err := server.NewReplica(f.Summary())
	if err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	if err := d.setupReadPath(srv); err != nil {
		log.Fatalf("higgsd: %v", err)
	}
	if anaCfg != nil {
		// A follower's summary applies tailed records through the same shard
		// entry points as ingest, so the sketches absorb everything
		// replicated after boot (the boot snapshot itself is served but not
		// re-counted — DESIGN.md §17); a resync swap rebuilds the engine
		// with the new summary automatically.
		if err := srv.SetAnalytics(*anaCfg); err != nil {
			log.Fatalf("higgsd: analytics: %v", err)
		}
		logAnalytics(anaCfg)
	}
	srvPtr.Store(srv)
	srv.SetReplication(func() server.ReplicationStatus {
		st := f.Status()
		return server.ReplicationStatus{
			Role:       server.RoleFollower,
			Source:     st.Source,
			AppliedSeq: st.AppliedSeq,
			PrimarySeq: st.PrimarySeq,
			Lag:        st.Lag,
			Resyncs:    st.Resyncs,
		}
	})
	banner := fmt.Sprintf("follower of %s listening on %s (shards=%d items=%d applied_seq=%d)",
		source, d.addr, srv.Summary().NumShards(), srv.Summary().Items(), f.Status().AppliedSeq)
	d.serve(srv, banner, func(context.Context) {
		f.Close() // stop tailing (and swapping) before touching the summary
		srv.Close()
	})
}

// loadOrNewSummary restores the summary at path, or builds a fresh one
// when no snapshot exists yet — the first boot of a WAL directory.
func loadOrNewSummary(path string, shards int) (*shard.Summary, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return buildSummary("", shards)
	}
	return buildSummary(path, shards)
}

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
