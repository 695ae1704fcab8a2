package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xmlviews/internal/obs"
	"xmlviews/internal/serve"
)

// daemon is one xvserve child process serving a store directory on a
// loopback port chosen by the kernel. It runs at its default flags.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon starts xvserve on dir and returns once /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting xvserve: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	first := make(chan string, 1)
	go func() {
		// Read the banner, drain the rest of stdout, then reap: Wait must
		// follow the last read from the pipe.
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br)
		_ = cmd.Wait()
		close(d.exited)
	}()
	var banner string
	select {
	case banner = <-first:
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("xvserve printed no banner within 60s")
	}
	i := strings.LastIndex(banner, " on ")
	if i < 0 {
		d.stop()
		return nil, fmt.Errorf("xvserve did not start: %q", strings.TrimSpace(banner))
	}
	d.base = "http://" + strings.TrimSpace(banner[i+len(" on "):])
	// The client holds at most one connection per CPU.
	n := runtime.NumCPU()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("xvserve not ready within 60s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to shut down and waits until the process has ended,
// killing it if it does not drain in time.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSS returns the daemon's peak resident set size (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// query sends one /query request and returns its latency (until the body
// was read), the decoded answer and the body size.
func (d *daemon) query(req request) (time.Duration, *serve.QueryResponse, int, error) {
	start := time.Now()
	resp, err := d.client.Get(d.base + "/query?" + req.values().Encode())
	if err != nil {
		return 0, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, 0, fmt.Errorf("%s: HTTP %d: %s", req.q, resp.StatusCode, bytes.TrimSpace(body))
	}
	var qr serve.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return 0, nil, 0, fmt.Errorf("%s: decoding answer: %w", req.q, err)
	}
	return lat, &qr, len(body), nil
}

// update posts one batch and returns the daemon's acknowledgement.
func (d *daemon) update(body []byte) (*serve.UpdateResponse, error) {
	resp, err := d.client.Post(d.base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("update: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var ur serve.UpdateResponse
	if err := json.Unmarshal(data, &ur); err != nil {
		return nil, fmt.Errorf("decoding update acknowledgement: %w", err)
	}
	return &ur, nil
}

// scrape is one reading of the daemon's /stats and /metrics.
type scrape struct {
	stats serve.Stats
	hists map[string]obs.HistogramSnapshot
}

func (d *daemon) scrape() (*scrape, error) {
	s := &scrape{}
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&s.stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	resp, err = d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if s.hists, err = obs.ParseHistograms(data); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return s, nil
}

// histMeanMS returns the mean, in milliseconds, of the observations a
// histogram took between two scrapes (0 when it took none).
func histMeanMS(before, after *scrape, name string) float64 {
	a, b := after.hists[name], before.hists[name]
	n := a.Count - b.Count
	if n <= 0 {
		return 0
	}
	return (a.Sum - b.Sum) / float64(n) * 1e3
}
