// Command higgsvet is the repository's custom static-analysis suite
// (DESIGN.md §18). It mechanically enforces the concurrency and API
// invariants that the design docs state in prose and that no API shape
// or call-site list can carry: lock hold-time discipline and sync.Pool
// ownership.
//
// It runs two ways:
//
//	go vet -vettool=$(which higgsvet) ./...   # as a vet tool
//	go run ./cmd/higgsvet ./...               # standalone (re-execs go vet)
//
// As a vet tool it speaks cmd/go's unitchecker protocol: it answers
// -V=full with a content-addressed build ID, answers -flags with a JSON
// flag description, and analyzes each package from the vet.cfg file
// cmd/go hands it (typechecking against the compiler's export data, so
// no source beyond the target package is re-parsed).
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"higgs/internal/vetrules"
)

func main() {
	args := os.Args[1:]
	// Single-purpose protocol queries from cmd/go.
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			printVersion()
			return
		case args[0] == "-flags":
			// higgsvet takes no flags; an empty JSON array tells cmd/go so.
			fmt.Println("[]")
			return
		case args[0] == "help" || args[0] == "-help" || args[0] == "--help":
			printHelp()
			return
		}
	}
	// A vet.cfg argument means cmd/go is driving us over one package.
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			os.Exit(runUnit(a))
		}
	}
	os.Exit(standalone(args))
}

// printVersion implements the -V=full handshake cmd/go uses to fingerprint
// the vet tool for its build cache (cmd/go/internal/work.(*Builder).toolID
// requires `<name> version devel ... buildID=<hex>` for non-release tools).
// The build ID is the hash of this executable, so editing an analyzer
// invalidates cached vet results.
func printVersion() {
	name := filepath.Base(os.Args[0])
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%s\n", name, id)
}

func printHelp() {
	fmt.Println("higgsvet: static enforcement of this repository's concurrency and API invariants (DESIGN.md §18)")
	fmt.Println()
	fmt.Println("usage: go vet -vettool=$(which higgsvet) ./...")
	fmt.Println("       go run ./cmd/higgsvet [packages]   (defaults to ./...)")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range vetrules.All() {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Printf("  %-12s %s\n", a.Name, summary)
	}
	fmt.Println()
	fmt.Println("suppress a reviewed exception with: //higgsvet:ignore <analyzer> <reason>")
}

// standalone re-execs `go vet -vettool=<this binary> <patterns>` so that
// cmd/go does the package loading, dependency export data, and caching —
// the tool then re-enters above via the vet.cfg path, once per package.
func standalone(patterns []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "higgsvet: cannot locate own executable: %v\n", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "higgsvet: %v\n", err)
		return 1
	}
	return 0
}
