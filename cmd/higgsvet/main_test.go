package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles higgsvet into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "higgsvet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building higgsvet: %v\n%s", err, out)
	}
	return bin
}

// TestVettoolProtocol drives the built tool through cmd/go exactly the
// way CI does — the -V=full fingerprint, the -flags handshake, and the
// vet.cfg unit-checker path — over a package that must be higgsvet-clean.
// The analyzers themselves are covered by the fixture tests in
// internal/vetrules; this test pins the driver plumbing.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the tool and re-execs the go toolchain")
	}
	bin := buildTool(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	f := strings.Fields(string(out))
	// cmd/go's toolID parser requires: >= 3 fields, f[1] == "version", and
	// for a "devel" version a final buildID= field.
	if len(f) < 3 || f[1] != "version" || !strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Fatalf("-V=full output would fail cmd/go's toolID parser: %q", string(out))
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	if strings.TrimSpace(string(out)) != "[]" {
		t.Fatalf("-flags must print an empty JSON array, got %q", string(out))
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "higgs/internal/rcache")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over a clean package failed: %v\n%s", err, out)
	}
}

// TestStandaloneMode pins the `go run ./cmd/higgsvet <pkg>` entry point:
// the tool re-execs go vet against itself and propagates the exit code.
func TestStandaloneMode(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the tool and re-execs the go toolchain")
	}
	bin := buildTool(t)
	if out, err := exec.Command(bin, "higgs/internal/rcache").CombinedOutput(); err != nil {
		t.Fatalf("standalone run over a clean package failed: %v\n%s", err, out)
	}
}

// TestHelpListsAllAnalyzers keeps the help text in sync with the suite.
func TestHelpListsAllAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the tool")
	}
	bin := buildTool(t)
	out, err := exec.Command(bin, "help").Output()
	if err != nil {
		t.Fatalf("help: %v", err)
	}
	for _, name := range []string{"lockscope", "poolput"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("help output does not mention analyzer %q", name)
		}
	}
}
