package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"higgs/internal/ingest"
	"higgs/internal/shard"
	"higgs/internal/stream"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ from this build")

// buildDaemon compiles this package into a temporary binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bin := filepath.Join(t.TempDir(), "higgsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// golden compares got with testdata/name (or rewrites it under -update).
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (go test ./cmd/higgsd -update rewrites it, if the change is meant)\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestHelpGolden pins the whole flag set — names, defaults, help text —
// as `higgsd -h` prints it, and how the process ends on each kind of
// command-line error.
func TestHelpGolden(t *testing.T) {
	bin := buildDaemon(t)
	run := func(args ...string) (stderr string, exit int) {
		var buf bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &buf
		cmd.Run()
		return buf.String(), cmd.ProcessState.ExitCode()
	}
	help, exit := run("-h")
	if exit != 0 {
		t.Errorf("higgsd -h: exit %d, want 0", exit)
	}
	// The first line names the binary's path.
	_, flags, _ := strings.Cut(help, "\n")
	golden(t, "help.golden", []byte("Usage of higgsd:\n"+flags))

	if msg, exit := run("-no-such-flag"); exit != 2 || !strings.HasPrefix(msg, "flag provided but not defined: -no-such-flag\nUsage of ") {
		t.Errorf("unknown flag: exit %d, stderr %q; want 2 and the flag package's report", exit, msg)
	}
	if msg, exit := run("-load", "x", "-wal-dir", "y"); exit != 1 || !strings.Contains(msg, "higgsd: -load conflicts with -wal-dir") {
		t.Errorf("conflicting flags: exit %d, stderr %q; want 1 and the conflict", exit, msg)
	}
	if msg, exit := run("-ingest-mode", "sync"); exit != 1 || !strings.Contains(msg, "/v1/insert") {
		t.Errorf("-ingest-mode sync: exit %d, stderr %q; want 1 and a pointer to /v1/insert", exit, msg)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startDaemon runs the binary until the test ends and waits for /healthz.
func startDaemon(t *testing.T, bin, addr string, args ...string) {
	t.Helper()
	var logs bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon %v never served /healthz:\n%s", args, logs.String())
		}
	}
}

var (
	numberRE = regexp.MustCompile(`:-?[0-9][0-9.e+-]*`)
	stringRE = regexp.MustCompile(`"(version|source)":"[^"]*"`)
)

// healthzShape fetches /healthz and blanks what differs from run to run —
// every number, the version and the source URL — leaving keys, their
// order, nesting, which optional keys are present, booleans and the
// remaining strings.
func healthzShape(t *testing.T, addr string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, err %v", resp.StatusCode, err)
	}
	raw = numberRE.ReplaceAll(raw, []byte(":0"))
	raw = stringRE.ReplaceAll(raw, []byte(`"$1":""`))
	var out bytes.Buffer
	if err := json.Indent(&out, raw, "", "  "); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, raw)
	}
	return out.Bytes()
}

// TestHealthzGolden pins the /healthz body of the three roles: a standalone
// daemon with every option off (the zero-value shapes), a WAL primary with
// every option on, and a follower of it.
func TestHealthzGolden(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()

	standalone := freeAddr(t)
	startDaemon(t, bin, standalone, "-shards", "3", "-ingest-mode", "auto") // the one value that still boots
	golden(t, "healthz_standalone.golden", healthzShape(t, standalone))

	primary, feed := freeAddr(t), freeAddr(t)
	startDaemon(t, bin, primary, "-shards", "2", "-wal-dir", filepath.Join(dir, "wal"),
		"-replication-addr", feed, "-retention-window", "1h", "-cache-bytes", "1048576",
		"-admit-rate", "1000", "-analytics")
	// One logged edge, so the sequence fields (omitted at zero) are present
	// on both sides.
	resp, err := http.Post("http://"+primary+"/v1/insert", "application/json",
		strings.NewReader(`[{"s":1,"d":2,"w":3,"t":10}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d", resp.StatusCode)
	}
	golden(t, "healthz_primary.golden", healthzShape(t, primary))

	follower := freeAddr(t)
	startDaemon(t, bin, follower, "-replicate-from", "http://"+feed)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var h struct {
			Replication struct {
				AppliedSeq uint64 `json:"applied_seq"`
			} `json:"replication"`
		}
		resp, err := http.Get("http://" + follower + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Replication.AppliedSeq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied seq 1 (at %d)", h.Replication.AppliedSeq)
		}
	}
	golden(t, "healthz_follower.golden", healthzShape(t, follower))
}

// TestBootRefusesForeignSnapshot: a -wal-dir holding another directory's
// snapshot.higgs — shard watermarks up to 300 beside an empty log — must
// not boot. Served, it would number new edges from 1, under the
// watermarks, and the next recovery would skip every acknowledged one as a
// replay.
func TestBootRefusesForeignSnapshot(t *testing.T) {
	bin := buildDaemon(t)
	cfg := shard.DefaultConfig()
	cfg.Shards = 2
	sum, err := shard.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 300; seq++ {
		e := stream.Edge{S: seq % 37, D: seq % 11, W: 1, T: int64(seq)}
		sum.InsertShardAt(sum.ShardFor(e.S), []stream.Edge{e}, seq)
	}
	dir := t.TempDir()
	if err := ingest.WriteSnapshot(sum, filepath.Join(dir, "snapshot.higgs")); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	var logs bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-wal-dir", dir)
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		select {
		case <-exited:
			if code := cmd.ProcessState.ExitCode(); code != 1 || !strings.Contains(logs.String(), "write-ahead log ends at 0") {
				t.Fatalf("boot over a foreign snapshot: exit %d, stderr %q; want 1 and the refusal", code, logs.String())
			}
			return
		default:
		}
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			cmd.Process.Kill()
			<-exited
			t.Fatalf("daemon booted over a snapshot whose watermarks run ahead of its empty log:\n%s", logs.String())
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-exited
			t.Fatalf("daemon neither exited nor served:\n%s", logs.String())
		}
	}
}
