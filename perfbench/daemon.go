package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one listrankd process booted with default flags; only its
// listen address is chosen here (a free loopback port).
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	log     bytes.Buffer // stdout+stderr; read only after the process exited
	done    chan struct{}
	exitErr error
}

var (
	liveMu  sync.Mutex
	live    = map[*daemon]bool{}
	errBoot = errors.New("listrankd did not become ready")
)

// bootDaemon starts the listrankd binary run.sh built from the checkout
// and waits until it answers /healthz.
func bootDaemon(cfg config) (*daemon, error) {
	bin := filepath.Join(cfg.out, "listrankd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("listrankd binary: %w (perfbench/run.sh builds it)", err)
	}
	dir := filepath.Join(cfg.out, "run")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("listrankd-%d.addr", os.Getpid()))
	os.Remove(addrFile)
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start listrankd: %w", err)
	}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		d.exitErr = d.cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(20 * time.Second)
	for d.addr == "" {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.addr = strings.TrimSpace(string(b))
			break
		}
		if err := d.waitStep(deadline); err != nil {
			return nil, err
		}
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return d, nil
			}
		}
		if err := d.waitStep(deadline); err != nil {
			return nil, err
		}
	}
}

// waitStep sleeps one polling step during boot, failing if the daemon
// exited or the deadline passed.
func (d *daemon) waitStep(deadline time.Time) error {
	select {
	case <-d.done:
		return fmt.Errorf("%w: exited during boot: %v\n%s", errBoot, d.exitErr, d.log.String())
	case <-time.After(5 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		d.kill()
		return fmt.Errorf("%w within 20s", errBoot)
	}
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM and waits for the drain. It returns the exit code
// and the daemon's log; a daemon still running after the timeout is
// killed and reported as an error.
func (d *daemon) stop(timeout time.Duration) (int, string, error) {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, "", fmt.Errorf("signal listrankd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(timeout):
		d.kill()
		return -1, d.log.String(), fmt.Errorf("listrankd did not drain within %v", timeout)
	}
	return d.cmd.ProcessState.ExitCode(), d.log.String(), nil
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.forget()
}

func (d *daemon) forget() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// stopAllDaemons kills every daemon still running; it runs on every
// exit path so none outlives the benchmark.
func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// scrape fetches /metrics and returns its unlabelled samples.
func scrape(c *http.Client, addr string) (map[string]int64, error) {
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetch /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("read /metrics: %w", err)
	}
	m := map[string]int64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: bad value %q", name, val)
		}
		m[name] = v
	}
	return m, nil
}
