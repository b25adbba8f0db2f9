package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis/anz"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// host is one place a worker runs. Untraced runs use real sdg-worker
// processes (procHost) so every number crosses a process boundary; traced
// runs host the worker inside the bench process (localHost) because only
// there can Worker.SetDialer put the tracing decorator on the
// worker-to-worker links as well.
type host interface {
	addr() string
	// kill ends the worker the way a crash would: no Stop message, no
	// flushing. It returns once the worker is gone.
	kill()
	// stop reaps a worker the coordinator has already told to shut down.
	stop()
	// cpu is the worker's user+system CPU time so far; rssPeakKB its peak
	// resident set (after a kill, as it stood just before). A localHost
	// has no process of its own and reports zero.
	cpu() time.Duration
	rssPeakKB() int64
}

// buildWorker compiles cmd/sdg-worker into the checkout's build directory.
// go build is a no-op when the cache is warm, so calling it per run costs
// little and always runs the tree's current source.
func buildWorker(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, ".bench_build", "sdg-worker")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sdg-worker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build sdg-worker: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// moduleRoot is the repository checkout the benchmark was started in.
func moduleRoot() (string, error) { return anz.FindModuleRoot(".") }

// procHost is one sdg-worker OS process.
type procHost struct {
	cmd    *exec.Cmd
	listen string
	spawn  time.Duration // fork/exec until the listen address is announced
	exited bool
	peakKB int64 // VmHWM read just before kill
}

// spawnProc starts bin on an ephemeral port and waits for it to announce
// its address on stdout.
func spawnProc(bin string) (*procHost, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	// If the bench dies without cleaning up (the driver's timeout), the
	// kernel reaps the workers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &procHost{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			p.listen = strings.Fields(line[i+len("listening on "):])[0]
			break
		}
	}
	if p.listen == "" {
		p.kill()
		return nil, fmt.Errorf("%s exited before announcing its address", bin)
	}
	p.spawn = time.Since(start)
	return p, nil
}

func (p *procHost) addr() string { return p.listen }

func (p *procHost) kill() {
	if p.exited {
		return
	}
	// wait4's ru_maxrss is no substitute: it carries the bench process's
	// own resident set from before the exec.
	p.peakKB = p.rssPeakKB()
	_ = p.cmd.Process.Kill() // already-exited is the only failure, and Wait reports it
	_ = p.cmd.Wait()         // a killed process always "fails" Wait
	p.exited = true
}

func (p *procHost) stop() {
	if p.exited {
		return
	}
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant once the run's checks passed
		close(done)
	}()
	select {
	case <-done:
		p.exited = true
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		p.exited = true
	}
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux ABI Go runs on.
const clockTick = 10 * time.Millisecond

func (p *procHost) cpu() time.Duration {
	if p.exited {
		return p.cmd.ProcessState.UserTime() + p.cmd.ProcessState.SystemTime()
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

func (p *procHost) rssPeakKB() int64 {
	if p.exited {
		return p.peakKB
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			return kb
		}
	}
	return 0
}

// localHost is a worker served from inside the bench process over loopback
// TCP, with its peer links decorated by dial.
type localHost struct {
	w   *runtime.Worker
	srv *cluster.Server
}

func spawnLocal(dial func(addr string) (cluster.Transport, error)) (*localHost, error) {
	w := runtime.NewWorker()
	w.SetDialer(dial)
	srv, err := cluster.Serve("127.0.0.1:0", w.Handler())
	if err != nil {
		return nil, err
	}
	return &localHost{w: w, srv: srv}, nil
}

func (h *localHost) addr() string { return h.srv.Addr() }

func (h *localHost) kill() {
	h.srv.Close()
	h.w.Close()
}

func (h *localHost) stop()              { h.kill() }
func (h *localHost) cpu() time.Duration { return 0 }
func (h *localHost) rssPeakKB() int64   { return 0 }
