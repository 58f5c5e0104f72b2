package higgs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// replHealth is the slice of /healthz this test consumes.
type replHealth struct {
	Durability struct {
		Appended  uint64 `json:"appended_seq"`
		SyncedSeq uint64 `json:"synced_seq"`
	} `json:"durability"`
	Replication struct {
		Role       string `json:"role"`
		Source     string `json:"source"`
		AppliedSeq uint64 `json:"applied_seq"`
		Lag        uint64 `json:"lag"`
		Resyncs    int64  `json:"resyncs"`
	} `json:"replication"`
}

func getHealth(t *testing.T, base string) replHealth {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h replHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func getSnapshot(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d, err %v", resp.StatusCode, err)
	}
	return b
}

// TestE2EReplicationChaos is the kill -9 gate for WAL-shipping
// replication: a follower is SIGKILLed mid-catch-up and again mid-tail
// (while the primary keeps ingesting, including an expire), restarted on
// its -replica-dir each time, and must converge to a summary
// byte-identical to the primary's — replaying its overlap with what the
// dead incarnation already applied without double-applying a single
// record (a double-apply changes weights and breaks byte equality). The
// replica must serve reads and answer 403 on every write.
func TestE2EReplicationChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	replicaDir := filepath.Join(dir, "replica")
	pAddr, rAddr, fAddr := freeAddr(t), freeAddr(t), freeAddr(t)

	primary := exec.Command(bins["higgsd"], "-addr", pAddr, "-shards", "2",
		"-wal-dir", walDir, "-replication-addr", rAddr)
	var plogs bytes.Buffer
	primary.Stderr = &plogs
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	defer primary.Process.Kill()
	waitHTTP(t, pAddr)
	pBase := "http://" + pAddr

	// Deterministic batches: i%50→i%50+1 at time i, weight 1 — so any
	// double-applied record shows up as a doubled weight.
	feed := func(from, to int) {
		t.Helper()
		const step = 500
		for lo := from; lo < to; lo += step {
			hi := lo + step
			if hi > to {
				hi = to
			}
			var sb strings.Builder
			sb.WriteByte('[')
			for i := lo; i < hi; i++ {
				if i > lo {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"s":%d,"d":%d,"w":1,"t":%d}`, i%50, i%50+1, i)
			}
			sb.WriteByte(']')
			resp, err := http.Post(pBase+"/v1/ingest", "application/json", strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest status %d", resp.StatusCode)
			}
		}
	}
	flush := func() {
		t.Helper()
		resp, err := http.Post(pBase+"/v1/flush", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	startFollower := func() *exec.Cmd {
		t.Helper()
		f := exec.Command(bins["higgsd"], "-addr", fAddr, "-replicate-from", "http://"+rAddr,
			"-replica-dir", replicaDir)
		f.Stderr = io.Discard
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	converged := func() {
		t.Helper()
		flush()
		target := getHealth(t, pBase).Durability.SyncedSeq
		deadline := time.Now().Add(30 * time.Second)
		fBase := "http://" + fAddr
		for {
			h := getHealth(t, fBase)
			if h.Replication.Role != "follower" {
				t.Fatalf("follower healthz role = %q", h.Replication.Role)
			}
			if h.Replication.AppliedSeq >= target {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at seq %d, want %d", h.Replication.AppliedSeq, target)
			}
			time.Sleep(20 * time.Millisecond)
		}
		want := getSnapshot(t, pBase)
		got := getSnapshot(t, fBase)
		if !bytes.Equal(got, want) {
			t.Fatalf("follower snapshot (%d bytes) diverges from primary (%d bytes): lost or double-applied records",
				len(got), len(want))
		}
	}

	// Phase 1: records exist before the follower is born, so its boot is a
	// catch-up — kill -9 in the middle of it.
	feed(0, 15000)
	f := startFollower()
	time.Sleep(50 * time.Millisecond) // likely mid-catch-up; any point is legal
	if err := f.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	f.Wait()

	// Restart: must resume (cache or snapshot), converge, byte-equal.
	f = startFollower()
	defer func() { f.Process.Kill(); f.Wait() }()
	waitHTTP(t, fAddr)
	converged()

	// Phase 2: kill -9 mid-tail — the primary keeps writing (including an
	// expire record) while the follower dies and comes back.
	feed(15000, 20000)
	resp, err := http.Post(pBase+"/v1/expire", "application/json", strings.NewReader(`{"cutoff":7000}`))
	if err != nil {
		t.Fatal(err)
	}
	var exp map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if exp["dropped"] <= 0 {
		t.Fatalf("expire dropped %d leaves, want > 0 (vacuous)", exp["dropped"])
	}
	if err := f.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	feed(20000, 26000)

	f = startFollower()
	defer func() { f.Process.Kill(); f.Wait() }()
	waitHTTP(t, fAddr)
	converged()

	// The replica serves reads — and the same answers as the primary.
	fBase := "http://" + fAddr
	pw := queryWeight(t, pBase, `{"kind":"edge","s":1,"d":2,"ts":0,"te":30000}`)
	fw := queryWeight(t, fBase, `{"kind":"edge","s":1,"d":2,"ts":0,"te":30000}`)
	if pw != fw || fw <= 0 {
		t.Fatalf("edge weight: primary %d, follower %d", pw, fw)
	}

	// Writes are refused with 403 on every mutating endpoint.
	for _, wr := range []struct{ path, body string }{
		{"/v1/insert", `[{"s":1,"d":2,"w":1,"t":1}]`},
		{"/v1/ingest", `[{"s":1,"d":2,"w":1,"t":1}]`},
		{"/v1/flush", ""},
		{"/v1/expire", `{"cutoff":1}`},
		{"/v1/delete", `{"s":1,"d":2,"w":1,"t":1}`},
		{"/v1/snapshot", "junk"},
	} {
		resp, err := http.Post(fBase+wr.path, "application/json", strings.NewReader(wr.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("POST %s on replica: status %d, want 403", wr.path, resp.StatusCode)
		}
	}
	// The rejected writes changed nothing: still byte-equal.
	converged()

	h := getHealth(t, fBase)
	if h.Replication.Source != "http://"+rAddr {
		t.Fatalf("follower healthz source = %q, want %q", h.Replication.Source, "http://"+rAddr)
	}
}
