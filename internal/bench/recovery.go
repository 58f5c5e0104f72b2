package bench

import (
	"fmt"

	"higgs/internal/metrics"
)

// walRecoveryGate is the crash-recovery gate (internal/wal +
// ingest.Recover, DESIGN.md §12): the retention gate's scenario with no
// expire points. Recovery from a crash mid-ingest must be byte-identical
// to a clean synchronous run, both by pure WAL replay onto an empty
// summary and by mid-stream snapshot + WAL tail. Replay throughput (of the
// full replay) is informational; the byte-identity columns are the
// assertion.
var walRecoveryGate = gate{
	id:      "walrecovery",
	title:   "Extra: crash recovery — snapshot + WAL replay (internal/wal)",
	columns: []string{"edges", "replay", "replay-only", "snap+tail"},
	shards:  shardCounts,
	row: func(c *gateCase) ([]string, error) {
		_, eps, err := recoverBothWays(c, nil)
		if err != nil {
			return nil, err
		}
		c.record("replay_eps", eps)
		return []string{fmt.Sprint(len(c.ds.Stream)), metrics.FormatEPS(eps), "byte-equal", "byte-equal"}, nil
	},
}

// retentionGate is the durable-retention gate (DESIGN.md §13): crash
// recovery with three sliding-window expires interleaved at deterministic
// stream offsets, each cutting half a window behind the ingest frontier so
// whole subtrees actually drop. The failure it exists to catch is
// recovery resurrecting expired edges: pure replay must re-run every
// expire record at its sequence position, and snapshot + tail must not
// double-apply the two expires the snapshot covers while still running
// the third. It refuses to pass vacuously: the reference run must reclaim
// leaves, or the expire points are toothless.
var retentionGate = gate{
	id:      "retention",
	title:   "Extra: durable retention — crash recovery with interleaved expires",
	header:  "Extra: durable retention — crash recovery with interleaved expires (internal/wal)",
	columns: []string{"edges", "expires", "dropped", "replay-only", "snap+tail"},
	shards:  shardCounts,
	row: func(c *gateCase) ([]string, error) {
		st := c.ds.Stream
		exps := []expirePoint{
			{at: len(st) / 4, cutoff: st[len(st)/8].T},
			{at: len(st) / 2, cutoff: st[len(st)/4].T},
			{at: 3 * len(st) / 4, cutoff: st[len(st)/2].T},
		}
		dropped, _, err := recoverBothWays(c, exps)
		if err != nil {
			return nil, err
		}
		if dropped <= 0 {
			return nil, fmt.Errorf("clean run dropped %d leaves; expire points never bite", dropped)
		}
		c.record("dropped", float64(dropped))
		return []string{fmt.Sprint(len(st)), fmt.Sprint(len(exps)), fmt.Sprint(dropped), "byte-equal", "byte-equal"}, nil
	},
}

// recoverBothWays runs one case of the crash-recovery scenario: the clean
// reference, then a crash recovered by full replay and one recovered from
// a mid-stream snapshot plus the tail, each held to the reference's
// bytes. It returns the leaves the reference's expires reclaimed and the
// full replay's throughput.
func recoverBothWays(c *gateCase, exps []expirePoint) (dropped int64, replayEPS float64, err error) {
	cfg, st := c.shardConfig(), c.ds.Stream
	ref, dropped, err := cleanReference(cfg, st, exps)
	if err != nil {
		return 0, 0, fmt.Errorf("clean reference: %w", err)
	}
	if replayEPS, err = crashRecovery(cfg, st, exps, false, ref); err != nil {
		return 0, 0, fmt.Errorf("replay-only: %w", err)
	}
	if _, err = crashRecovery(cfg, st, exps, true, ref); err != nil {
		return 0, 0, fmt.Errorf("snap+tail: %w", err)
	}
	return dropped, replayEPS, nil
}
