package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/medexd of the checkout under test.
func buildDaemon(root, out string) (string, error) {
	bin := filepath.Join(out, "medexd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/medexd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building medexd: %v\n%s", err, msg)
	}
	return bin, nil
}

// daemon is one medexd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startDaemon starts medexd on a free port and returns once it listens.
// Its log goes to logPath.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting medexd: %w", err)
	}
	d := &daemon{cmd: cmd, logf: logf, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "medexd: listening on "); ok {
				addr <- a
			}
		}
		// Wait only after stdout is drained, as os/exec requires.
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("medexd exited before listening (%v):\n%s", d.err, tail(logPath))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("medexd did not listen within 60s:\n%s", tail(logPath))
	}
}

// stop sends SIGTERM and requires a clean exit: medexd exits 0 only once
// every acknowledged batch is drained to disk and the engine is closed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling medexd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("medexd did not exit within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("medexd shutdown: %v:\n%s", d.err, tail(d.logf.Name()))
	}
	return nil
}

// kill ends the process and waits for it; for error paths only.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// peakRSSMB reads the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	Table struct {
		Rows int64 `json:"rows"`
	} `json:"table"`
	Ingest struct {
		Batches, Rows, Groups, Rejected, PeakQueue int64
	} `json:"ingest"`
	Compaction struct {
		MinorRuns, MajorRuns, BytesRewritten, Backlog int64
	} `json:"compaction"`
	Cache struct {
		Hits, Misses, Evictions int64
	} `json:"cache"`
}

func (d *daemon) stats(c *http.Client) (daemonStats, error) {
	var st daemonStats
	resp, err := c.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tail returns the end of a log file for error messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(bytes.TrimSpace(raw))
}
