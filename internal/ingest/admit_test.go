package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"higgs/internal/stream"
)

// TestOneAdmitPath runs one op script — submits of 1, 3 and 600 edges
// (a single edge, a small group, and a batch past auto mode's sync
// threshold), an expire mid-stream, a flush — through every mode over the
// null log and over a WAL, and requires the same summary from all six:
// byte-identical snapshots within a log kind (watermarks included), and
// identical per-shard contents and answers across the two kinds, whose
// snapshots differ only in the watermarks a null log never assigns.
func TestOneAdmitPath(t *testing.T) {
	st := testStreamFor(t, 4000)
	sizes := []int{1, 3, 600}
	expireAt, cutoff := len(st)/2, st[len(st)/4].T

	type outcome struct {
		snap    []byte
		stats   any
		answers []int64
	}
	run := func(t *testing.T, mode Mode, withWAL bool) outcome {
		t.Helper()
		sum := newShardedFor(t, 4)
		defer sum.Close()
		cfg := Config{Mode: mode}
		if withWAL {
			log := openWAL(t, t.TempDir(), 0)
			defer log.Close()
			cfg.WAL = log
		}
		p, err := New(sum, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		expired := false
		for lo, k := 0, 0; lo < len(st); k++ {
			if !expired && lo >= expireAt {
				dropped, err := p.Expire(cutoff)
				if err != nil {
					t.Fatal(err)
				}
				if dropped == 0 {
					t.Fatal("the script's expire reclaimed nothing; the comparison would be vacuous")
				}
				expired = true
			}
			hi := min(lo+sizes[k%len(sizes)], len(st))
			submitAll(t, p, st[lo:hi], hi-lo)
			lo = hi
		}
		p.Flush()
		if n := p.Pending(); n != 0 {
			t.Fatalf("%d edges pending after Flush", n)
		}
		out := outcome{stats: sum.Stats().PerShard}
		span := st[len(st)-1].T
		for _, e := range st[:400] {
			out.answers = append(out.answers,
				sum.EdgeWeight(e.S, e.D, 0, span), sum.EdgeWeight(e.S, e.D, cutoff, span),
				sum.VertexOut(e.S, 0, span), sum.VertexIn(e.D, cutoff, span))
		}
		out.snap = snapshotBytes(t, sum)
		return out
	}

	var ref [2]outcome // per log kind: the sync-mode run
	for w, withWAL := range []bool{false, true} {
		for _, mode := range []Mode{ModeSync, ModeAsync, ModeAuto} {
			got := run(t, mode, withWAL)
			if mode == ModeSync {
				ref[w] = got
			}
			if !bytes.Equal(got.snap, ref[w].snap) {
				t.Errorf("wal=%v %v: snapshot differs from sync mode over the same log (%d vs %d bytes)", withWAL, mode, len(got.snap), len(ref[w].snap))
			}
			if !reflect.DeepEqual(got.stats, ref[0].stats) {
				t.Errorf("wal=%v %v: per-shard stats differ from the null-log sync run:\n got %+v\nwant %+v", withWAL, mode, got.stats, ref[0].stats)
			}
			if !reflect.DeepEqual(got.answers, ref[0].answers) {
				t.Errorf("wal=%v %v: query answers differ from the null-log sync run", withWAL, mode)
			}
		}
	}
	if bytes.Equal(ref[0].snap, ref[1].snap) {
		t.Error("WAL and null-log snapshots are byte-equal: the WAL run advanced no watermark")
	}
}

// TestSubmitSingleEdgeModes pins the one decision Submit makes for the
// smallest batch: sync mode applies it, async queues it, and auto applies
// it only when a threshold of 1 makes a single edge "large" — the same
// rule with and without a log.
func TestSubmitSingleEdgeModes(t *testing.T) {
	e := []stream.Edge{{S: 1, D: 2, W: 3, T: 10}}
	for _, tc := range []struct {
		cfg     Config
		applied bool
	}{
		{Config{Mode: ModeSync}, true},
		{Config{Mode: ModeAsync}, false},
		{Config{Mode: ModeAuto}, false},
		{Config{Mode: ModeAuto, SyncThreshold: 1}, true},
	} {
		sum := newShardedFor(t, 2)
		p := newPipeline(t, sum, tc.cfg)
		applied, err := p.Submit(e)
		if err != nil || applied != tc.applied {
			t.Errorf("%v threshold %d: Submit = (%v, %v), want (%v, nil)", tc.cfg.Mode, tc.cfg.SyncThreshold, applied, err, tc.applied)
		}
		p.Flush()
		if got := sum.EdgeWeight(1, 2, 0, 100); got != 3 {
			t.Errorf("%v: EdgeWeight = %d after flush, want 3", tc.cfg.Mode, got)
		}
		p.Close()
		sum.Close()
	}
}
