package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// setAffinity pins thread tid (0 = the calling thread) to one CPU.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return e
	}
	return nil
}

// pinSelf pins every thread this process has to cpu; threads the runtime
// starts later inherit the mask of the thread that creates them.
func pinSelf(cpu int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpu); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	return nil
}

// spawner starts daemons from one OS thread that lives as long as the
// process and, when pinning works, is itself pinned to the daemon's CPU:
// a child inherits the affinity of the thread that forks it, and its
// parent-death signal stays armed for as long as that thread exists.
type spawner struct {
	reqs   chan *exec.Cmd
	errs   chan error
	pinned bool
}

// newSpawner starts the spawning thread; cpu < 0 leaves it unpinned.
func newSpawner(cpu int) *spawner {
	s := &spawner{reqs: make(chan *exec.Cmd), errs: make(chan error)}
	ready := make(chan bool)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread must not be reused or retired
		ready <- cpu >= 0 && setAffinity(0, cpu) == nil
		for cmd := range s.reqs {
			s.errs <- cmd.Start()
		}
	}()
	s.pinned = <-ready
	return s
}

func (s *spawner) start(cmd *exec.Cmd) error {
	s.reqs <- cmd
	return <-s.errs
}

// daemon is one running higgsd child in its own process group.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
}

// daemonArgs is the fixed topology of every workload: four shards, auto
// ingest mode, a WAL that syncs as soon as it is dirty, a read cache;
// analytics, admission, the retention loop and periodic snapshots stay off.
func daemonArgs(addr, walDir string, cacheBytes int64) []string {
	return []string{
		"-addr", addr,
		"-shards", strconv.Itoa(shards),
		"-ingest-mode", "auto",
		"-wal-dir", walDir,
		"-wal-sync-interval", "0",
		"-cache-bytes", strconv.FormatInt(cacheBytes, 10),
	}
}

// daemonEnv is added to the daemon's environment: one CPU's worth of Go
// scheduler, to go with the one CPU it is pinned to.
const daemonEnv = "GOMAXPROCS=1"

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs higgsd with daemonEnv and its log appended to
// logPath. It returns as soon as the process exists; waitReady tells when
// it serves.
func (s *spawner) startDaemon(bin, walDir, logPath string, cacheBytes int64) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, daemonArgs(addr, walDir, cacheBytes)...)
	cmd.Env = append(os.Environ(), daemonEnv)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := s.start(cmd); err != nil {
		return nil, fmt.Errorf("start higgsd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no news
		close(d.done)
	}()
	return d, nil
}

// waitReady polls until the daemon accepts a connection — higgsd listens
// only after recovery is complete — and returns that connection.
func (d *daemon) waitReady(timeout time.Duration) (*client, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := dial(d.addr)
		if err == nil {
			return c, nil
		}
		select {
		case <-d.done:
			return nil, errors.New("higgsd exited before serving")
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("higgsd not serving after %v: %w", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill9 kills the daemon's process group outright and reaps it: the crash
// whose recovery setup_s times.
func (d *daemon) kill9() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.done
}

// stop asks the daemon to shut down and kills its group if it has not
// within five seconds.
func (d *daemon) stop() {
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.kill9()
	}
}

// cpuNanos is the CPU time the process has used, all threads together,
// read from its POSIX CPU-time clock: one system call, nanoseconds, cheap
// enough to take around every handful of requests. (/proc/<pid>/stat
// counts the same in 10 ms ticks.)
func cpuNanos(pid int) (int64, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
	clock := uintptr(int32(^uint32(pid))<<3 | 2)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, e)
	}
	return ts.Nano(), nil
}

// rssBytes is the process's resident set (VmRSS).
func rssBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// dirBytes sums the sizes of the files directly inside dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// newStateDir makes the directory the daemons of this invocation keep
// their WALs in. With no explicit parent it prefers /dev/shm, when that
// has room: fsync on the shared virtual disk was the largest single noise
// source, and on tmpfs it costs nothing, so device latency is left out of
// the measurement on purpose. onTmpfs tells which kind it got.
func newStateDir(parent, fallback string) (dir string, onTmpfs bool, err error) {
	const tmpfsMagic, roomBytes = 0x01021994, 1 << 30
	var st syscall.Statfs_t
	if parent == "" {
		parent = fallback
		if syscall.Statfs("/dev/shm", &st) == nil && st.Type == tmpfsMagic && st.Bavail*uint64(st.Bsize) >= roomBytes {
			parent = "/dev/shm"
		}
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", false, err
	}
	if dir, err = os.MkdirTemp(parent, "higgs-benchmark-"); err != nil {
		return "", false, err
	}
	return dir, syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic, nil
}
