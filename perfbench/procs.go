package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one gss-server or gss-router child process.
type proc struct {
	name string
	args []string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// freeAddr reserves a loopback port by binding and releasing it: port
// when it is free, any port when it is 0 or taken.
func freeAddr(port int) (string, error) {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil && port != 0 {
		l, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc execs bin with args plus -addr on port (0 for any) and
// returns once the process is running. Its output goes to a log file in
// dir, never to the benchmark's own standard output.
func startProc(dir, bin, name string, port int, args []string) (*proc, error) {
	addr, err := freeAddr(port)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("create %s log: %w", name, err)
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc()))
	// Should the benchmark itself be killed, the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: full, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a process we stop is not news
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits,
// or the deadline passes.
func (p *proc) waitHealthy(deadline time.Time) error {
	for {
		resp, err := ctlClient.Get(p.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before /healthz answered (see %s)", p.name, p.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: /healthz did not answer in time", p.name)
		}
		time.Sleep(200 * time.Microsecond) // fine enough for a start of a few ms
	}
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the process has been reaped.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in
// KiB.
func procStatus(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 100

// procCPU returns the user+system CPU time of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the aggregate "cpu" line of /proc/stat and returns the
// ticks stolen by the hypervisor and the total ticks. On a shared
// virtual machine the stolen share explains much of the run-to-run
// spread, so each result records it.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuOf sums the CPU time of procs; a process that cannot be read
// contributes nothing.
func cpuOf(procs []*proc) time.Duration {
	var sum time.Duration
	for _, p := range procs {
		if c, err := procCPU(p.cmd.Process.Pid); err == nil {
			sum += c
		}
	}
	return sum
}

// peakRSSMiB sums VmHWM over procs.
func peakRSSMiB(procs []*proc) (float64, error) {
	var kib int64
	for _, p := range procs {
		v, err := procStatus(p.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// selfRSSMiB is the benchmark process's own peak RSS.
func selfRSSMiB() float64 {
	v, _ := procStatus(os.Getpid(), "VmHWM")
	return float64(v) / 1024
}

// scrape fetches /metrics from p and parses it.
func scrape(ctx context.Context, p *proc) (series, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := ctlClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", p.name, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// fsType names the filesystem holding dir, for the result record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
