package main

import (
	"strings"
	"testing"
	"time"

	"higgs/internal/ingest"
)

// modeGone is what every -ingest-mode value but "auto" is answered with.
func modeGone(mode string) string {
	return `-ingest-mode "` + mode + `": admission has one path and the flag selects nothing (only "auto" parses); ` +
		"for writes visible on return POST to /v1/insert, which answers 200 once the batch is applied"
}

// TestParseConfigRejects walks every rule parseConfig enforces, one
// command line each, and pins the message the operator sees.
func TestParseConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-ingest-mode sync", modeGone("sync")},
		{"-ingest-mode async", modeGone("async")},
		{"-ingest-mode turbo", modeGone("turbo")},
		// Once booted with no cache and no error: flag stops at "true".
		{"-analytics true -cache-bytes 5", `unexpected argument "true" (every flag after it was ignored)`},
		// Once booted as "one per CPU" and skipped the -load shard check.
		{"-shards -3", "-shards -3, need ≥ 0"},
		{"-queue-depth 0", "-queue-depth 0, need ≥ 1"},
		{"-wal-dir w -snapshot-interval -1s", "-snapshot-interval -1s, need ≥ 0"},
		{"-wal-sync-interval -1ms", "-wal-sync-interval -1ms, need ≥ 0"},
		{"-wal-dir w -load s", "-load conflicts with -wal-dir (the WAL directory owns its snapshot; remove -load)"},
		{"-retention-window -1h", "-retention-window -1h0m0s, need ≥ 0"},
		{"-retention-window 1h -retention-interval -1s", "-retention-interval -1s, need ≥ 0"},
		{"-retention-interval 1s", "-retention-interval requires -retention-window"},
		{"-replication-addr :1", "-replication-addr requires -wal-dir (the feed ships the write-ahead log)"},
		{"-replica-dir r", "-replica-dir requires -replicate-from"},
		{"-replicate-from u -wal-dir w", "-replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)"},
		{"-replicate-from u -load s", "-replicate-from conflicts with -load (the boot snapshot comes from the primary)"},
		{"-replicate-from u -shards 2", "-replicate-from conflicts with -shards (the primary's snapshot fixes the shard count)"},
		{"-replicate-from u -retention-window 1h", "-replicate-from conflicts with -retention-window (retention runs on the primary and replicates as expire records)"},
		// Chained replication needs no rule of its own: a feed needs -wal-dir,
		// which a follower may not have.
		{"-replicate-from u -replication-addr :1", "-replication-addr requires -wal-dir (the feed ships the write-ahead log)"},
		{"-replicate-from u -replication-addr :1 -wal-dir w", "-replicate-from conflicts with -wal-dir (a follower's durable state is its primary; use -replica-dir for the local cache)"},
		{"-snapshot-interval 1s", "-snapshot-interval requires -wal-dir (or -replica-dir on a follower)"},
		{"-cache-bytes -1", "-cache-bytes -1, need ≥ 0"},
		{"-admit-heavy -1", "-admit-heavy -1, need ≥ 0"},
		{"-admit-rate -1", "-admit-rate -1, need ≥ 0"},
		{"-analytics-topk 8", "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{"-analytics-epoch 1m", "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{"-analytics-burst 2", "-analytics-topk/-analytics-epoch/-analytics-burst require -analytics"},
		{"-analytics -analytics-topk -1", "-analytics-topk -1, need ≥ 0"},
		{"-analytics -analytics-epoch 500ms", "-analytics-epoch 500ms, need whole seconds ≥ 1s (or 0 for the default)"},
		// Once truncated to 1s without a word.
		{"-analytics -analytics-epoch 1500ms", "-analytics-epoch 1.5s, need whole seconds ≥ 1s (or 0 for the default)"},
		{"-analytics -analytics-epoch -2s", "-analytics-epoch -2s, need whole seconds ≥ 1s (or 0 for the default)"},
		{"-analytics -analytics-burst 0.5", "-analytics-burst 0.5, need ≥ 1 (or 0 for the default)"},
	} {
		_, err := parseConfig(strings.Fields(tc.args))
		if err == nil || err.Error() != tc.want {
			t.Errorf("higgsd %s\n got: %v\nwant: %s", tc.args, err, tc.want)
		}
	}
}

// TestParseConfigAccepts pins what the flags turn into.
func TestParseConfigAccepts(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.addr != ":8080" || c.ingest.QueueDepth != 4096 || c.analytics != nil || c.replFrom != "" {
		t.Errorf("defaults = %+v", c)
	}

	c, err = parseConfig(strings.Fields("-queue-depth 7 -commit-interval 3ms -wal-dir w -snapshot-interval 1s " +
		"-retention-window 1h -replication-addr :1 -analytics -analytics-epoch 2s -analytics-topk 9 -analytics-burst 1.5 -cache-bytes 65536"))
	if err != nil {
		t.Fatal(err)
	}
	if c.ingest.QueueDepth != 7 || c.ingest.CommitInterval != 3*time.Millisecond {
		t.Errorf("ingest = %+v", c.ingest)
	}
	if a := c.analytics; a == nil || a.EpochSeconds != 2 || a.TrackK != 9 || a.BurstFactor != 1.5 {
		t.Errorf("analytics = %+v", c.analytics)
	}

	// The ruler's command line (benchmark/daemon.go daemonArgs), which go
	// test ./... does not otherwise enter: every flag it passes must parse.
	c, err = parseConfig(strings.Fields("-addr A -shards 4 -ingest-mode auto -wal-dir D -wal-sync-interval 0 -cache-bytes 1048576"))
	if err != nil {
		t.Fatalf("the benchmark's daemon flags: %v", err)
	}
	if c.addr != "A" || c.shards != 4 || c.walDir != "D" || c.walSync != 0 || c.cacheBytes != 1<<20 || c.ingest != (ingest.Config{QueueDepth: 4096}) {
		t.Errorf("the benchmark's daemon flags = %+v", c)
	}

	// A follower may keep a snapshot cadence for its -replica-dir alone.
	if _, err := parseConfig(strings.Fields("-replicate-from u -replica-dir r -snapshot-interval 1s -analytics")); err != nil {
		t.Errorf("follower flags: %v", err)
	}
}
