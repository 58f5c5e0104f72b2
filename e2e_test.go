package higgs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"higgs"
)

// buildTools compiles the repository's command binaries once per test run.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

// TestE2EGenInfoPipeline exercises higgsgen | higgsinfo -build.
func TestE2EGenInfoPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsgen", "higgsinfo")

	gen := exec.Command(bins["higgsgen"], "-nodes", "500", "-edges", "20000",
		"-span", "100000", "-skew", "2.0", "-seed", "5")
	var streamOut bytes.Buffer
	gen.Stdout = &streamOut
	if err := gen.Run(); err != nil {
		t.Fatalf("higgsgen: %v", err)
	}
	if n := bytes.Count(streamOut.Bytes(), []byte("\n")); n != 20000 {
		t.Fatalf("higgsgen emitted %d lines, want 20000", n)
	}

	info := exec.Command(bins["higgsinfo"], "-build")
	info.Stdin = bytes.NewReader(streamOut.Bytes())
	out, err := info.CombinedOutput()
	if err != nil {
		t.Fatalf("higgsinfo: %v\n%s", err, out)
	}
	for _, want := range []string{"edges:          20000", "HIGGS summary:", "layers:", "space (packed):"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("higgsinfo output missing %q:\n%s", want, out)
		}
	}
}

// TestE2EBenchList checks higgsbench -list and a tiny experiment run.
func TestE2EBenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsbench")
	out, err := exec.Command(bins["higgsbench"], "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("higgsbench -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table2", "fig10", "fig21", "ablation"} {
		if !strings.Contains(string(out), id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
	out, err = exec.Command(bins["higgsbench"], "-exp", "table2", "-scale", "0.02",
		"-presets", "lkml").CombinedOutput()
	if err != nil {
		t.Fatalf("higgsbench table2: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "lkml") {
		t.Fatalf("table2 output:\n%s", out)
	}
	// Unknown experiment fails loudly.
	if _, err := exec.Command(bins["higgsbench"], "-exp", "nope").CombinedOutput(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestE2EDaemon boots higgsd, drives the HTTP API, saves a snapshot on
// shutdown, and restarts from it.
func TestE2EDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	snap := filepath.Join(t.TempDir(), "state.higgs")
	addr := freeAddr(t)

	run := exec.Command(bins["higgsd"], "-addr", addr, "-save", snap)
	var logs bytes.Buffer
	run.Stderr = &logs
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Process.Kill()
	waitHTTP(t, addr)

	base := "http://" + addr
	resp, err := http.Post(base+"/v1/insert", "application/json",
		strings.NewReader(`[{"s":1,"d":2,"w":3,"t":10},{"s":1,"d":2,"w":4,"t":20}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := queryWeight(t, base, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("edge weight = %d, want 7", got)
	}

	// Graceful shutdown writes the snapshot.
	if err := run.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("higgsd exit: %v\n%s", err, logs.String())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v\n%s", err, logs.String())
	}

	// Restart from the snapshot and verify state survived.
	addr2 := freeAddr(t)
	run2 := exec.Command(bins["higgsd"], "-addr", addr2, "-load", snap)
	run2.Stderr = io.Discard
	if err := run2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		run2.Process.Signal(os.Interrupt)
		run2.Wait()
	}()
	waitHTTP(t, addr2)
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("restored edge weight = %d, want 7", got)
	}
}

// TestE2ECrashRecoveryExpireWALDir is the durable-retention e2e gate:
// ingest, expire over HTTP, ingest more, SIGKILL, restart on the same
// -wal-dir — and the recovered summary must be byte-for-byte what a clean
// in-process run of the same operations produces. Before expiry was a
// WAL-logged operation, recovery replayed the raw edge log and resurrected
// every expired edge, so this test is red on a build without expire
// records.
func TestE2ECrashRecoveryExpireWALDir(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	walDir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)

	run := exec.Command(bins["higgsd"], "-addr", addr, "-shards", "2",
		"-commit-interval", "1h", "-wal-dir", walDir)
	var logs bytes.Buffer
	run.Stderr = &logs
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Process.Kill()
	waitHTTP(t, addr)
	base := "http://" + addr

	// Two deterministic batches around a cutoff that drops whole subtrees.
	mkBatch := func(from, to int) ([]higgs.Edge, string) {
		var edges []higgs.Edge
		var sb strings.Builder
		sb.WriteByte('[')
		for i := from; i < to; i++ {
			if i > from {
				sb.WriteByte(',')
			}
			e := higgs.Edge{S: uint64(i % 50), D: uint64(i%50 + 1), W: 1, T: int64(i)}
			edges = append(edges, e)
			fmt.Fprintf(&sb, `{"s":%d,"d":%d,"w":%d,"t":%d}`, e.S, e.D, e.W, e.T)
		}
		sb.WriteByte(']')
		return edges, sb.String()
	}
	batch1, body1 := mkBatch(0, 3000)
	batch2, body2 := mkBatch(3000, 3600)
	const cutoff = 1500

	ingest := func(body string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status = %d, want 202 or 200", resp.StatusCode)
		}
	}
	ingest(body1)
	resp, err := http.Post(base+"/v1/expire", "application/json",
		strings.NewReader(fmt.Sprintf(`{"cutoff":%d}`, cutoff)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("expire status = %d: %s", resp.StatusCode, b)
	}
	var exp map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if exp["dropped"] <= 0 {
		t.Fatalf("expire dropped %d leaves, want > 0 (the test would be vacuous)", exp["dropped"])
	}
	ingest(body2)

	// Hard crash: SIGKILL — queues, summary, everything in memory is gone.
	if err := run.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	run.Wait()

	// Clean in-process reference: identical batches and expire, in order,
	// through a WAL'd pipeline closed in order (so sequence numbers and
	// watermarks match the daemon's).
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	ref, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refLog, err := higgs.OpenWAL(higgs.WALConfig{Dir: filepath.Join(t.TempDir(), "refwal")})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := higgs.NewIngest(ref, higgs.IngestConfig{WAL: refLog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Submit(batch1); err != nil {
		t.Fatal(err)
	}
	if dropped, err := pipe.Expire(cutoff); err != nil || dropped <= 0 {
		t.Fatalf("reference expire: dropped = %d, err = %v", dropped, err)
	}
	if _, err := pipe.Submit(batch2); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	if err := refLog.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}

	// Restart on the same WAL dir: recovery must reproduce the post-expire
	// state exactly — not resurrect the expired edges.
	addr2 := freeAddr(t)
	run2 := exec.Command(bins["higgsd"], "-addr", addr2, "-shards", "2", "-wal-dir", walDir)
	var logs2 bytes.Buffer
	run2.Stderr = &logs2
	if err := run2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		run2.Process.Signal(os.Interrupt)
		run2.Wait()
	}()
	waitHTTP(t, addr2)
	sresp, err := http.Get("http://" + addr2 + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("recovered snapshot (%d bytes) diverges from clean post-expire reference (%d bytes): expired edges were resurrected or tail edges lost\n%s",
			len(got), want.Len(), logs2.String())
	}
	// The post-crash tail survived too.
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":1,"d":2,"ts":3000,"te":3600}`); got <= 0 {
		t.Fatalf("post-expire tail edge lost: weight = %d, want > 0", got)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHTTP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

// queryWeight asks a daemon's /v2/query one item and returns its weight.
func queryWeight(t *testing.T, base, item string) int64 {
	t.Helper()
	resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader("["+item+"]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var v []struct {
		Weight *int64 `json:"weight"`
	}
	if err := json.Unmarshal(body, &v); resp.StatusCode != http.StatusOK || err != nil || len(v) != 1 || v[0].Weight == nil {
		t.Fatalf("/v2/query %s: %d %s", item, resp.StatusCode, body)
	}
	return *v[0].Weight
}

// TestE2EAsyncDaemon boots higgsd in async ingest mode with a deliberately
// huge commit interval, 202-ingests edges, checks the flush barrier makes
// them visible, then SIGTERMs with *unflushed* edges pending: the shutdown
// drain must fold them into the -save snapshot, and a restart must serve
// them.
func TestE2EAsyncDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	snap := filepath.Join(t.TempDir(), "state.higgs")
	addr := freeAddr(t)

	run := exec.Command(bins["higgsd"], "-addr", addr, "-save", snap,
		"-shards", "2", "-commit-interval", "1h")
	var logs bytes.Buffer
	run.Stderr = &logs
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Process.Kill()
	waitHTTP(t, addr)
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/ingest", "application/json",
		strings.NewReader(`[{"s":1,"d":2,"w":3,"t":10},{"s":1,"d":2,"w":4,"t":20}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := queryWeight(t, base, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("edge weight after flush = %d, want 7", got)
	}

	// Accepted but never flushed: only the shutdown drain can save it.
	resp, err = http.Post(base+"/v1/ingest", "application/json",
		strings.NewReader(`[{"s":2,"d":3,"w":5,"t":30}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second ingest status = %d, want 202", resp.StatusCode)
	}
	if err := run.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("higgsd exit: %v\n%s", err, logs.String())
	}

	addr2 := freeAddr(t)
	run2 := exec.Command(bins["higgsd"], "-addr", addr2, "-load", snap)
	run2.Stderr = io.Discard
	if err := run2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		run2.Process.Signal(os.Interrupt)
		run2.Wait()
	}()
	waitHTTP(t, addr2)
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":2,"d":3,"ts":0,"te":100}`); got != 5 {
		t.Fatalf("unflushed 202 edge lost across shutdown: weight = %d, want 5", got)
	}
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 7 {
		t.Fatalf("restored edge weight = %d, want 7", got)
	}
}

// TestE2ESigtermDrainSnapshotExact covers the SIGTERM shutdown contract:
// a draining Close() plus -save must leave a snapshot that LoadSharded
// restores exactly. The daemon 202-accepts edges in async mode with a
// commit interval so large only the shutdown drain can apply them, gets
// SIGTERM, and the snapshot it writes must be byte-for-byte what an
// in-process summary fed the same batch produces — and must restore to
// the same answers.
func TestE2ESigtermDrainSnapshotExact(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	snap := filepath.Join(t.TempDir(), "state.higgs")
	addr := freeAddr(t)

	run := exec.Command(bins["higgsd"], "-addr", addr, "-save", snap,
		"-shards", "2", "-commit-interval", "1h")
	var logs bytes.Buffer
	run.Stderr = &logs
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Process.Kill()
	waitHTTP(t, addr)

	body := `[{"s":1,"d":2,"w":3,"t":10},{"s":2,"d":3,"w":5,"t":20},{"s":1,"d":2,"w":4,"t":30}]`
	resp, err := http.Post("http://"+addr+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
	}
	if err := run.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := run.Wait(); err != nil {
		t.Fatalf("higgsd exit: %v\n%s", err, logs.String())
	}

	// In-process reference: same configuration, same edges, same order.
	cfg := higgs.DefaultShardedConfig()
	cfg.Shards = 2
	ref, err := higgs.NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.InsertBatch([]higgs.Edge{
		{S: 1, D: 2, W: 3, T: 10}, {S: 2, D: 3, W: 5, T: 20}, {S: 1, D: 2, W: 4, T: 30},
	})
	var want bytes.Buffer
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(snap)
	if err != nil {
		t.Fatalf("snapshot not written: %v\n%s", err, logs.String())
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("drained -save snapshot (%d bytes) differs from in-process reference (%d bytes)",
			len(got), want.Len())
	}
	loaded, err := higgs.LoadSharded(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if w := loaded.EdgeWeight(1, 2, 0, 100); w != 7 {
		t.Fatalf("restored edge 1→2 weight = %d, want 7", w)
	}
	if w := loaded.EdgeWeight(2, 3, 0, 100); w != 5 {
		t.Fatalf("restored edge 2→3 weight = %d, want 5", w)
	}
}

// TestE2ECrashRecoveryWALDir kills higgsd with SIGKILL — no drain, no
// snapshot — and restarts it on the same -wal-dir: every 202-accepted
// edge must come back via snapshot + WAL replay (DESIGN.md §12).
func TestE2ECrashRecoveryWALDir(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	walDir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)

	run := exec.Command(bins["higgsd"], "-addr", addr, "-shards", "2",
		"-commit-interval", "1h", "-wal-dir", walDir)
	var logs bytes.Buffer
	run.Stderr = &logs
	if err := run.Start(); err != nil {
		t.Fatal(err)
	}
	defer run.Process.Kill()
	waitHTTP(t, addr)
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/ingest", "application/json",
		strings.NewReader(`[{"s":1,"d":2,"w":3,"t":10},{"s":2,"d":3,"w":5,"t":20}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d, want 202", resp.StatusCode)
	}
	// healthz advertises the WAL with the accepted edges already synced
	// (202 is only sent after the group fsync).
	hz := struct {
		Durability struct {
			WAL       bool   `json:"wal"`
			Appended  uint64 `json:"appended_seq"`
			SyncedSeq uint64 `json:"synced_seq"`
		} `json:"durability"`
	}{}
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if !hz.Durability.WAL || hz.Durability.Appended != 2 || hz.Durability.SyncedSeq != 2 {
		t.Fatalf("healthz durability = %+v, want wal=true appended=2 synced=2", hz.Durability)
	}
	// A snapshot upload must be refused: the WAL owns the durable state.
	resp, err = http.Post(base+"/v1/snapshot", "application/octet-stream", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot upload with -wal-dir: status %d, want 409", resp.StatusCode)
	}

	// Hard crash: SIGKILL. The commit interval is an hour, so the edges
	// sit in queues — only the WAL has them.
	if err := run.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	run.Wait()

	addr2 := freeAddr(t)
	run2 := exec.Command(bins["higgsd"], "-addr", addr2, "-shards", "2", "-wal-dir", walDir)
	var logs2 bytes.Buffer
	run2.Stderr = &logs2
	if err := run2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		run2.Process.Signal(os.Interrupt)
		run2.Wait()
	}()
	waitHTTP(t, addr2)
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 3 {
		t.Fatalf("crashed 202 edge lost: weight = %d, want 3\n%s", got, logs2.String())
	}
	if got := queryWeight(t, "http://"+addr2, `{"kind":"edge","s":2,"d":3,"ts":0,"te":100}`); got != 5 {
		t.Fatalf("crashed 202 edge lost: weight = %d, want 5\n%s", got, logs2.String())
	}
}

// TestE2EDeleteIsLoggedAndSequenced: /v1/delete is a record like any other.
// Under an hour-long commit interval an ingested edge is still in a
// committer's queue when its delete arrives: the delete must be sequenced
// behind it (deleted:true, weight gone — before the delete went through
// the pipeline it answered deleted:false and the edge was applied
// afterwards), it must consume a WAL sequence number, and after SIGKILL +
// restart on the same -wal-dir the replay must delete the edge again
// instead of resurrecting it.
func TestE2EDeleteIsLoggedAndSequenced(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e builds binaries")
	}
	bins := buildTools(t, "higgsd")
	walDir := filepath.Join(t.TempDir(), "wal")
	boot := func() (base string, stop func()) {
		t.Helper()
		addr := freeAddr(t)
		run := exec.Command(bins["higgsd"], "-addr", addr, "-shards", "2",
			"-commit-interval", "1h", "-wal-dir", walDir)
		run.Stderr = io.Discard
		if err := run.Start(); err != nil {
			t.Fatal(err)
		}
		waitHTTP(t, addr)
		return "http://" + addr, func() { run.Process.Kill(); run.Wait() }
	}
	post := func(url, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode/100 != 2 {
			t.Fatalf("POST %s: status %d, body %v, err %v", url, resp.StatusCode, v, err)
		}
		return v
	}

	base, kill := boot()
	defer kill()
	post(base+"/v1/ingest", `[{"s":1,"d":2,"w":3,"t":10},{"s":2,"d":3,"w":5,"t":20}]`)
	if got := post(base+"/v1/delete", `{"s":1,"d":2,"w":3,"t":10}`); got["deleted"] != true {
		t.Fatalf("delete of a queued edge answered %v, want deleted:true", got)
	}
	post(base+"/v1/flush", "")
	if got := queryWeight(t, base, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 0 {
		t.Fatalf("weight after ingest + delete + flush = %d, want 0", got)
	}
	hz := struct {
		Durability struct {
			Appended uint64 `json:"appended_seq"`
			Synced   uint64 `json:"synced_seq"`
		} `json:"durability"`
	}{}
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if err != nil || hz.Durability.Appended != 3 || hz.Durability.Synced != 3 {
		t.Fatalf("healthz durability = %+v (err %v), want appended = synced = 3: two edges and the delete", hz.Durability, err)
	}
	kill() // SIGKILL: only the WAL survives

	base, kill = boot()
	defer kill()
	if got := queryWeight(t, base, `{"kind":"edge","s":1,"d":2,"ts":0,"te":100}`); got != 0 {
		t.Fatalf("deleted edge resurrected by crash recovery: weight = %d, want 0", got)
	}
	if got := queryWeight(t, base, `{"kind":"edge","s":2,"d":3,"ts":0,"te":100}`); got != 5 {
		t.Fatalf("surviving edge lost: weight = %d, want 5", got)
	}
}
