package bench

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"higgs/internal/metrics"
	"higgs/internal/repl"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

// replWait bounds every follower catch-up in the experiment; a follower
// that cannot reach the primary's frontier in this long is a bug, not a
// slow runner.
const replWait = 60 * time.Second

// replicationGate is the WAL-shipping replication gate (internal/repl,
// DESIGN.md §15): a WAL-backed primary serves its replication feed over
// HTTP, and a follower's summary must be byte-for-byte identical to the
// primary's at the primary's last sequence for each of three follower
// lifecycles:
//
//   - cold: the follower attaches after the whole stream (edges plus an
//     interleaved expire) is durable and catches up by pure WAL tailing;
//   - snap+tail: the primary snapshots and truncates mid-stream first, so
//     the follower must boot from /repl/snapshot and tail the rest;
//   - restart: a follower with a local cache dir is killed mid-stream (no
//     orderly cache refresh — exactly the state a kill -9 leaves) and a
//     second incarnation resumes from the stale cache, replaying records
//     the first already applied; the per-shard watermarks must deduplicate
//     the overlap exactly.
//
// Catch-up throughput is recorded per shard count; read scale-out (one vs
// two read-only replicas answering /v2/query) is measured once per dataset
// and emitted in the artifact. Throughput and scaling numbers on shared
// runners are informational; the byte-identity columns are the assertion.
var replicationGate = gate{
	id:      "replication",
	title:   "Extra: WAL-shipping replication — follower byte-equality + read scale-out",
	header:  "Extra: WAL-shipping replication — follower byte-equality + read scale-out (internal/repl)",
	columns: []string{"edges", "catch-up", "cold", "snap+tail", "restart"},
	shards:  shardCounts,
	row: func(c *gateCase) ([]string, error) {
		eps, err := replCold(c)
		if err != nil {
			return nil, fmt.Errorf("cold: %w", err)
		}
		if err := replSnapTail(c); err != nil {
			return nil, fmt.Errorf("snap+tail: %w", err)
		}
		if err := replRestart(c); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		c.record("catchup_eps", eps)
		return []string{fmt.Sprint(len(c.ds.Stream)), metrics.FormatEPS(eps), "byte-equal", "byte-equal", "byte-equal"}, nil
	},
	after: func(c *gateCase) error {
		q1, q2, err := replReadScaling(c.ds, shardConfig(4, uint64(c.seed)))
		if err != nil {
			return fmt.Errorf("read scale-out: %w", err)
		}
		c.record("read_qps_r1", q1)
		c.record("read_qps_r2", q2)
		c.record("read_scaling", q2/q1)
		fmt.Fprintf(c.o.Out, "%s read scale-out (4 shards, /v2/query): 1 replica %s q/s, 2 replicas %s q/s (×%.2f)\n",
			c.ds.Name, metrics.FormatEPS(q1), metrics.FormatEPS(q2), q2/q1)
		return nil
	},
}

// primary is a rig serving its replication feed, over small segments (so a
// mid-stream snapshot has whole segments to truncate), behind an httptest
// server.
type primary struct {
	*rig
	srv *httptest.Server
}

func newPrimary(cfg shard.Config) (*primary, error) {
	r, err := newRig(cfg, smallSegments)
	if err != nil {
		return nil, err
	}
	return &primary{r, httptest.NewServer(repl.NewPrimary(r.sum, r.log).Handler())}, nil
}

func (p *primary) close() {
	p.srv.Close()
	p.rig.close()
}

// feedExpiring feeds st[lo:hi] with one expire interleaved mid-range, so
// the shipped log carries both record types.
func (p *primary) feedExpiring(st stream.Stream, lo, hi int) error {
	return p.feed(st, lo, hi, []expirePoint{{at: (lo+hi)/2 + 1, cutoff: st[len(st)/8].T}})
}

// attach boots a follower of the primary with bench-scale cadences; dir
// is its local cache ("" for none). Closing the follower is the kill: it
// refreshes no cache.
func (p *primary) attach(dir string) (*repl.Follower, error) {
	f, err := p.boot(dir)
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		return nil, err
	}
	return f, nil
}

// boot is attach without Start: the follower holds its boot position until
// the caller starts its tail loop.
func (p *primary) boot(dir string) (*repl.Follower, error) {
	f, err := repl.NewFollower(repl.FollowerConfig{
		Source:        p.srv.URL,
		Dir:           dir,
		PollWait:      100 * time.Millisecond,
		RetryInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := f.Boot(); err != nil {
		return nil, err
	}
	return f, nil
}

// caughtUp waits for the follower to reach the primary's last sequence.
func (p *primary) caughtUp(f *repl.Follower) error {
	if target := p.log.LastSeq(); !f.WaitApplied(target, replWait) {
		return fmt.Errorf("follower stuck at seq %d, want %d", f.Status().AppliedSeq, target)
	}
	return nil
}

// converge waits for the follower to catch up and byte-compares the two
// live summaries there; a follower that needed a resync to get there took
// a path the scenario did not intend.
func (p *primary) converge(f *repl.Follower) error {
	if err := p.caughtUp(f); err != nil {
		return err
	}
	p.pipe.Flush() // the follower applied every durable record; so must the primary
	want, err := summaryBytes(p.sum, false)
	if err != nil {
		return err
	}
	got, err := summaryBytes(f.Summary(), false)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("follower summary at seq %d diverges from primary (%d vs %d bytes)",
			p.log.LastSeq(), len(got), len(want))
	}
	if st := f.Status(); st.Resyncs != 0 {
		return fmt.Errorf("follower needed %d resyncs", st.Resyncs)
	}
	return nil
}

// replCold: the whole stream is durable before the follower attaches;
// catch-up is pure WAL tailing (the log was never truncated). Returns the
// catch-up throughput in edges/s.
func replCold(c *gateCase) (float64, error) {
	st := c.ds.Stream
	p, err := newPrimary(c.shardConfig())
	if err != nil {
		return 0, err
	}
	defer p.close()
	if err := p.feedExpiring(st, 0, len(st)); err != nil {
		return 0, err
	}
	start := time.Now()
	f, err := p.attach("")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if err := p.converge(f); err != nil {
		return 0, err
	}
	eps := metrics.Throughput(int64(len(st)), time.Since(start))
	if f.Status().AppliedSeq == 0 {
		return 0, fmt.Errorf("vacuous: follower applied nothing")
	}
	return eps, nil
}

// replSnapTail: the primary snapshots and truncates mid-stream, so the
// follower must boot from /repl/snapshot and tail only the rest.
func replSnapTail(c *gateCase) error {
	st, half := c.ds.Stream, len(c.ds.Stream)/2
	p, err := newPrimary(c.shardConfig())
	if err != nil {
		return err
	}
	defer p.close()
	if err := p.feedExpiring(st, 0, half); err != nil {
		return err
	}
	if err := p.snap(); err != nil {
		return err
	}
	if floor := p.log.FirstSeq(); floor <= 1 {
		return fmt.Errorf("vacuous: truncation left floor %d; boot would not exercise the snapshot", floor)
	}
	f, err := p.attach("")
	if err != nil {
		return err
	}
	defer f.Close()
	if err := p.feed(st, half, len(st), nil); err != nil {
		return err
	}
	return p.converge(f)
}

// replRestart: a follower with a local cache dir applies past its boot
// cache and is killed. A second incarnation must resume from the stale
// cache, replay the overlap without double-applying (per-shard
// watermarks), and converge byte-identically, with no snapshot re-fetch.
func replRestart(c *gateCase) error {
	st, half := c.ds.Stream, len(c.ds.Stream)/2
	p, err := newPrimary(c.shardConfig())
	if err != nil {
		return err
	}
	defer p.close()
	dir, err := os.MkdirTemp("", "higgs-replica-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if err := p.feedExpiring(st, 0, half); err != nil {
		return err
	}
	f1, err := p.attach(dir)
	if err != nil {
		return err
	}
	defer f1.Close()
	if err := p.caughtUp(f1); err != nil {
		return err
	}
	// More durable records arrive and are applied past the boot cache...
	if err := p.feed(st, half, half+half/2, nil); err != nil {
		return err
	}
	if err := p.caughtUp(f1); err != nil {
		return err
	}
	diedAt := f1.Status().AppliedSeq
	f1.Close() // the kill: on-disk state is exactly a kill -9's

	if err := p.feed(st, half+half/2, len(st), nil); err != nil {
		return err
	}
	// The boot position is read before the tail loop starts: once it runs,
	// it can apply the whole tail before the check.
	f2, err := p.boot(dir)
	if err != nil {
		return err
	}
	defer f2.Close()
	if boot := f2.Status().AppliedSeq; boot >= diedAt {
		return fmt.Errorf("vacuous: restart booted at seq %d, want a stale cache below %d (no overlap to deduplicate)", boot, diedAt)
	}
	if err := f2.Start(); err != nil {
		return err
	}
	return p.converge(f2)
}

// replReadScaling measures /v2/query throughput against one vs two
// read-only replicas of the same primary, each a converged follower
// served by a server.Options{Replica: true} server. Returns queries/s for
// both pool sizes.
func replReadScaling(ds *Dataset, cfg shard.Config) (q1, q2 float64, err error) {
	p, err := newPrimary(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer p.close()
	if err := p.feed(ds.Stream, 0, len(ds.Stream), nil); err != nil {
		return 0, 0, err
	}
	var pool []*httptest.Server
	for i := 0; i < 2; i++ {
		f, err := p.attach("")
		if err != nil {
			return 0, 0, err
		}
		defer f.Close()
		if err := p.converge(f); err != nil {
			return 0, 0, err
		}
		srv, err := server.Open(f.Summary(), server.Options{Replica: true})
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		pool = append(pool, ts)
	}
	body := replQueryBody(ds)
	if q1, err = replQPS(pool[:1], body); err != nil {
		return 0, 0, err
	}
	if q2, err = replQPS(pool, body); err != nil {
		return 0, 0, err
	}
	return q1, q2, nil
}

// replQueryBody builds one /v2/query batch of edge queries drawn from the
// dataset's own edges.
func replQueryBody(ds *Dataset) string {
	span := ds.Stats.Span()
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < 64; i++ {
		e := ds.Stream[(i*2654435761)%len(ds.Stream)]
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"kind":"edge","s":%d,"d":%d,"ts":%d,"te":%d}`,
			e.S, e.D, e.T-span/4, e.T+span/4)
	}
	b.WriteByte(']')
	return b.String()
}

// replQPS drives the replica pool with concurrent clients for a fixed
// window, spreading clients round-robin, and returns queries/s (each
// /v2/query batch counts as one query).
func replQPS(pool []*httptest.Server, body string) (float64, error) {
	const clients = 8
	const window = 400 * time.Millisecond
	var (
		count atomic.Int64
		fails atomic.Int64
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			url := pool[c%len(pool)].URL + "/v2/query"
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					fails.Add(1)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fails.Add(1)
					return
				}
				count.Add(1)
			}
		}(c)
	}
	start := time.Now()
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	if fails.Load() > 0 || count.Load() == 0 {
		return 0, fmt.Errorf("%d failed queries, %d ok", fails.Load(), count.Load())
	}
	return metrics.Throughput(count.Load(), elapsed), nil
}
