// Command benchmark measures a real higgsd over loopback HTTP: four
// workloads, six end-to-end metrics each, and a per-layer ledger
// underneath. README.md says what every number means and why the
// benchmark is built the way it is; BENCHMARK.json at the repository root
// is its contract.
//
//	bash benchmark/run.sh --workload query-hot --seed 1 --seconds 12 --trace 0
//	cd benchmark && go run .                    # all four workloads, both modes
//	cd benchmark && go run . -repeat 10         # the repeatability check
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics BENCHMARK.json names for the
// chosen -trace mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", runSeconds, "length of the timed phase the run is sized for; scales the number of rounds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics, with the in-process traced replay")
		repeat   = flag.Int("repeat", 0, "run every workload this many times and report how well the runs agree")
		varySeed = flag.Bool("vary-seed", false, "with -repeat: give run i the seed -seed+i, as the acceptance check does")
		stateDir = flag.String("state-dir", "", "parent directory of the daemon's WAL (default: /dev/shm, else the build directory)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, z: fullSizes}
	if err := run(cfg, *repeat, *varySeed, *stateDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(cfg config, repeat int, varySeed bool, stateDir string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	s, err := newSession(root, stateDir)
	if err != nil {
		return err
	}
	defer s.close()
	switch {
	case repeat > 0:
		return s.repeat(cfg, repeat, varySeed, os.Stdout)
	case cfg.workload == "all":
		return s.all(cfg, os.Stdout)
	}
	res, err := s.run(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := printContract(os.Stdout, res); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checks failed: %s", cfg.workload, res.Failed, res.Attempted, strings.Join(res.Problems, "; "))
	}
	return nil
}

// session is what every run of one invocation shares: the built daemon,
// the pinning, the scratch directory, the description of the machine.
type session struct {
	bin     string // the built higgsd
	outDir  string // benchmark/out
	scratch string // parent of every run's state directory
	spawn   *spawner
	env     env
	closed  chan struct{}
}

// findRoot walks up from the working directory to the checkout: the
// directory whose go.mod declares module higgs.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module higgs\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no higgs checkout above the working directory (go.mod with \"module higgs\")")
		}
		dir = parent
	}
}

// newSession builds higgsd from the checkout's source, pins the generator
// and makes the scratch directory. Build outputs go under .bench_build in
// the checkout, results to benchmark/out.
func newSession(root, stateDir string) (*session, error) {
	buildDir := filepath.Join(root, ".bench_build")
	s := &session{
		bin:    filepath.Join(buildDir, "bin", "higgsd"),
		outDir: filepath.Join(root, "benchmark", "out"),
		closed: make(chan struct{}),
	}
	build := exec.Command("go", "build", "-o", s.bin, "./cmd/higgsd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/higgsd: %w\n%s", err, out)
	}
	var err error
	if s.scratch, s.env.WALOnTmpfs, err = newStateDir(stateDir, filepath.Join(buildDir, "state")); err != nil {
		return nil, err
	}
	// An interrupt must not leave the scratch directory behind; the
	// daemons die with this process (see spawner).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer signal.Stop(sig)
		select {
		case <-sig:
			_ = os.RemoveAll(s.scratch)
			os.Exit(1)
		case <-s.closed:
		}
	}()

	// The daemon and the generator share one CPU, the first this process
	// may use. On one closed-loop connection only one of the two ever has
	// work, so they do not compete; on two CPUs every request would cost
	// two cross-CPU wake-ups, each an exit to a hypervisor whose latency
	// depends on the neighbours (README.md has the numbers). The other
	// CPUs are left to the kernel and to whatever else the machine runs.
	daemonCPU := -1
	if cpus := allowedCPUs(); len(cpus) > 0 && pinSelf(cpus[0]) == nil {
		daemonCPU = cpus[0]
	}
	s.spawn = newSpawner(daemonCPU)
	s.env.NProc = runtime.NumCPU()
	s.env.CPUModel = cpuModel()
	s.env.GoVersion = runtime.Version()
	s.env.Commit = commit(root)
	s.env.Pinned = s.spawn.pinned
	return s, nil
}

func (s *session) close() {
	close(s.closed)
	_ = os.RemoveAll(s.scratch)
}

// run runs one workload once.
func (s *session) run(cfg config) (*result, error) {
	cfg.scratch, cfg.outDir = s.scratch, s.outDir
	return runWorkload(cfg, s.spawn, s.bin, s.env)
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// commit names the source measured; a checkout that is not a git
// repository reports "unknown".
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// all is the developer's one command: every workload, untraced then
// traced, every metric by name with its unit.
func (s *session) all(cfg config, w io.Writer) error {
	failed := 0
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg.workload, cfg.trace = name, trace
			res, err := s.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			printResult(w, res)
			failed += res.Failed
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// reported lists the metrics a run in this mode must print, in
// BENCHMARK.json's order.
func reported(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult writes one run for a reader: where it ran, what it checked,
// and every metric of its mode by name with its unit.
func printResult(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "== %s  seed=%d trace=%v  rounds=%d  commit=%s  %s  nproc=%d  cpu=%q  pinned=%v  wal_on_tmpfs=%v\n",
		res.Workload, res.Seed, res.Trace, len(res.Rounds), e.Commit, e.GoVersion, e.NProc, e.CPUModel, e.Pinned, e.WALOnTmpfs)
	fmt.Fprintf(w, "   higgsd %s  env %s\n", e.DaemonArgs, e.DaemonEnv)
	fmt.Fprintf(w, "   attempted=%d failed=%d prepare_s=%.3f\n", res.Attempted, res.Failed, res.PrepareS)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	for _, m := range reported(res.Trace) {
		fmt.Fprintf(w, "   %-32s %16.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
}

// printContract writes the line the driver reads: exactly the metrics
// BENCHMARK.json lists for the run's mode, each with all its digits.
func printContract(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, m := range reported(res.Trace) {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
