package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mus-serve process started by the benchmark. Its request
// log goes to a regular file: a file write never waits on a reader, so
// the log cannot stall the daemon the way an undrained pipe would.
type daemon struct {
	args    []string
	addr    string
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error
	started time.Time // just before exec
	ready   time.Time // first successful /v1/healthz
	obs     *http.Client
}

// startDaemon execs mus-serve on a free loopback port with the given extra
// flags (every other flag keeps its default) and waits until it answers
// /v1/healthz. The daemon only answers after its boot work — log replay,
// cache warm-up — is done, so ready−started is its set-up time.
func startDaemon(bin, logPath string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	d := &daemon{
		addr:    fmt.Sprintf("127.0.0.1:%d", port),
		logPath: logPath,
		exited:  make(chan struct{}),
		obs:     &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
	d.args = append([]string{"-addr", d.addr}, extra...)
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// waitReady polls /v1/healthz every 200µs until it answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("mus-serve exited during boot (%v); log tail:\n%s", d.waitErr, d.logTail())
		default:
		}
		resp, err := probe.Get(d.url() + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Now()
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("mus-serve not ready after %s; log tail:\n%s", timeout, d.logTail())
}

func (d *daemon) setup() time.Duration { return d.ready.Sub(d.started) }

// stop sends SIGTERM — the daemon drains, writes its cache snapshot and
// exits 0 — and waits for it to end, killing it if the drain overruns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signalling mus-serve: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("mus-serve did not drain within 30s; killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("mus-serve exited with %v; log tail:\n%s", d.waitErr, d.logTail())
	}
	return nil
}

// kill ends the daemon unconditionally and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // an already-exited process is fine
	<-d.exited
}

// scrape fetches and parses GET /metrics.
func (d *daemon) scrape(ctx context.Context) (Samples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.obs.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat; Linux fixes it
// at 100 for user space regardless of the kernel's tick rate.
const userHZ = 100

// cpuTime returns the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis start at field 3 (state).
	s := string(b)
	rp := strings.LastIndexByte(s, ')')
	if rp < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", s)
	}
	f := strings.Fields(s[rp+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times: %q", s)
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// logTail returns the last few KiB of the daemon's log for diagnostics.
func (d *daemon) logTail() string {
	f, err := os.Open(d.logPath)
	if err != nil {
		return "(no log)"
	}
	defer f.Close()
	const tail = 4 << 10
	if st, err := f.Stat(); err == nil && st.Size() > tail {
		_, _ = f.Seek(st.Size()-tail, io.SeekStart) // a failed seek just shows more
	}
	b, _ := io.ReadAll(f)
	return string(b)
}

// flagDefaults runs `mus-serve -h` and returns the default of every flag,
// so the host label states the configuration actually in force.
func flagDefaults(bin string) map[string]string {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero by design
	defs := make(map[string]string)
	var flag string
	for _, line := range strings.Split(string(out), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "-") {
			flag = strings.Fields(t)[0]
		}
		if i := strings.LastIndex(t, "(default "); i >= 0 && flag != "" {
			defs[flag] = strings.TrimSuffix(t[i+len("(default "):], ")")
		}
	}
	return defs
}

// runDir makes a fresh per-run directory under base.
func runDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
