package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rssLimitKB aborts a workload whose server's peak resident set passes
// 3 GB, before the host starts swapping and every later number is noise.
const rssLimitKB = 3 << 20

// errRSSLimit reports the abort above.
var errRSSLimit = errors.New("server peak RSS passed 3 GB")

// buildServer compiles cmd/tradefl-server from the checkout into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "tradefl-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tradefl-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tradefl-server: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one tradefl-server child.
type server struct {
	cmd    *exec.Cmd
	addr   string // gateway
	diag   string // /metrics
	stderr bytes.Buffer
	exited chan error
}

// freePort reserves a loopback port by binding and releasing it. The
// gateway reports its own ephemeral port on stdout; the diagnostics address
// is logged at info level only, which -log-level error hides, so the
// harness picks that port itself.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer launches a fresh gateway with default flags plus a
// never-throttling tenant rate, and waits for its "gateway on" line.
func startServer(bin string) (*server, error) {
	diag, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{diag: diag, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin,
		"-listen", "127.0.0.1:0", "-diag-addr", diag,
		"-tenant-rate", "1e6", "-log-level", "error")
	s.cmd.Stderr = &s.stderr
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1) // the one address line
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), "gateway on "); ok {
				lines <- strings.TrimSpace(addr)
				break
			}
		}
		for sc.Scan() { // drain ("draining" etc.) so the child never blocks
		}
	}()
	go func() { s.exited <- s.cmd.Wait() }()
	select {
	case addr, ok := <-lines:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("server exited before announcing its address: %s", s.stderr.String())
		}
		s.addr = addr
		return s, nil
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, errors.New("server did not announce its address within 10s")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is the only failure, and fine
	<-s.exited
}

// stop sends SIGTERM and waits for the graceful drain. A server that does
// not exit 0 fails the workload: drain is part of the contract.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signal server: %w", err)
	}
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("server drain: %w: %s", err, s.stderr.String())
		}
		return nil
	case <-time.After(40 * time.Second): // past the server's 30s drain budget
		s.kill()
		return errors.New("server did not exit within 40s of SIGTERM")
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds returns user+system CPU consumed so far by pid.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu times", pid)
	}
	return (utime + stime) / clockTick, nil
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// fsType names the filesystem holding path, from the longest matching
// mount point in /proc/mounts. WAL fsync cost is that filesystem's.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
