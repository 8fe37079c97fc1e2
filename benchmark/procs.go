package main

// Process hygiene: building the server binaries, spawning and killing
// children, free ports, scratch directories and /proc accounting.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one gsvbench invocation keeps everything it creates: all
// of it lives under <repo>/.bench_build so nothing outside the checkout
// is read or written.
type env struct {
	root   string // repository root (the directory holding go.mod "module gsv")
	binDir string
	tmpDir string // removed on exit

	mu       sync.Mutex
	children []*child
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module gsv\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the gsv repository: no go.mod with \"module gsv\" above the working directory")
		}
		dir = parent
	}
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, binDir: filepath.Join(root, ".bench_build", "bin")}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	tmpParent := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// goEnv keeps the Go build cache inside the checkout too (run.sh exports
// the same; this covers a gsvbench started by hand).
func (e *env) goEnv() []string {
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(e.root, ".bench_build", "gocache"),
		"GOPATH="+filepath.Join(e.root, ".bench_build", "gopath"), "GOWORK=off")
}

// goBuild builds one main package (pkg relative to dir) into binDir and
// returns the binary's path.
func (e *env) goBuild(dir, pkg, name string) (string, error) {
	out := filepath.Join(e.binDir, name)
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Env = e.goEnv()
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, tail(msg, 2000))
	}
	return out, nil
}

// cleanup kills every child still running and removes the scratch dir.
func (e *env) cleanup() {
	e.mu.Lock()
	cs := e.children
	e.children = nil
	e.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
	os.RemoveAll(e.tmpDir)
}

// child is one spawned process with the tail of its stderr retained.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr tailBuffer
	stdout bytes.Buffer  // read only after done is closed
	done   chan struct{} // closed once Wait returned
}

func (e *env) spawn(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	c.cmd.Stderr = &c.stderr
	c.cmd.Stdout = &c.stdout
	// Should gsvbench itself be killed, the kernel takes the child along.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = c.cmd.Wait()
		close(c.done)
	}()
	e.mu.Lock()
	e.children = append(e.children, c)
	e.mu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill SIGKILLs the child and waits until it has been reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// exitErr reports an early exit, quoting the stderr tail.
func (c *child) exitErr() error {
	select {
	case <-c.done:
		return fmt.Errorf("%s exited early (%v); stderr tail:\n%s", c.name, c.cmd.ProcessState, c.stderr.String())
	default:
		return nil
	}
}

// tailBuffer keeps the last few KiB written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = tail(append(t.buf, p...), 4096)
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitListening polls until addr accepts a connection, the child dies or
// the timeout passes.
func waitListening(c *child, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if err := c.exitErr(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not listening on %s after %v; stderr tail:\n%s", c.name, addr, timeout, c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is USER_HZ, which is 100 on every Linux ABI Go supports.
const clockTick = 100

// parseProcStat extracts utime+stime, in seconds, from the contents of
// /proc/PID/stat. The command name (field 2) may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("proc stat: bad utime/stime")
	}
	return float64(ut+st) / clockTick, nil
}

// parseStatusKB extracts one "Key:   123 kB" line from /proc/PID/status.
func parseStatusKB(data []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if v, err := strconv.ParseFloat(f[0], 64); err == nil {
					return v, nil
				}
			}
			return 0, fmt.Errorf("proc status: bad %s line %q", key, line)
		}
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuSeconds reads the CPU time a live child has consumed so far.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.pid()))
	if err != nil {
		return 0, err
	}
	return parseProcStat(data)
}

// peakRSSMB reads the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.pid()))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return kb / 1024, err
}
