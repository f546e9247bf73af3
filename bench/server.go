package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdrs/internal/obs"
)

// outDir holds everything a run leaves behind: the built server binary,
// its log, the traces and the result envelope. It is git-ignored.
const outDir = "out"

// buildServer compiles cmd/mdrs-serve from the checkout the benchmark
// sits in. It is not part of setup_s: a build is dominated by the state
// of Go's build cache, which says nothing about the program measured.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "mdrs-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "mdrs/cmd/mdrs-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build mdrs-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is a spawned mdrs-serve child, reached only over its sockets.
type server struct {
	cmd      *exec.Cmd
	done     chan struct{} // closed once the child has been waited for
	log      *os.File
	url      string // http://127.0.0.1:port
	debugURL string
	client   *http.Client
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed again before the child binds it, so another process can take
// the port in between; startServer retries when that happens.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns mdrs-serve with its documented defaults plus the
// given system size and schedule cache, and waits until /healthz answers.
func startServer(ctx context.Context, bin string, sites, cache int) (*server, error) {
	var err error
	for try := 0; try < 3; try++ {
		var s *server
		if s, err = spawnServer(ctx, bin, sites, cache); err == nil {
			return s, nil
		}
	}
	return nil, err
}

func spawnServer(ctx context.Context, bin string, sites, cache int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(outDir, "mdrs-serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Not CommandContext: its kill on cancellation would bypass the
	// graceful drain; stop sends SIGTERM and every caller defers it.
	cmd := exec.Command(bin, "-addr", addr, "-sites", strconv.Itoa(sites), "-cache", strconv.Itoa(cache), "-debug-addr", debug)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start mdrs-serve: %w", err)
	}
	n := runtime.GOMAXPROCS(0)
	s := &server{
		cmd: cmd, done: make(chan struct{}), log: log, url: "http://" + addr, debugURL: "http://" + debug,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}},
	}
	go func() {
		// The exit status of a child told to stop carries no information.
		_ = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = s.get(ctx, s.url+"/healthz"); err == nil {
			return s, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil || s.exited() {
			s.stop()
			return nil, fmt.Errorf("mdrs-serve on %s did not become healthy: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exited reports whether the child is gone: it lost the race for its
// port, say.
func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop asks the child to drain with SIGTERM and waits until it has
// ended; a child that ignores the request for 15 s is killed.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	// The signal can only fail if the child is already gone.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

func (s *server) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// post sends one plan to /schedule, reads the whole response into buf
// and reports whether it was answered from the schedule cache.
func (s *server) post(ctx context.Context, body []byte, buf *bytes.Buffer) (cached bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/schedule", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("POST /schedule: %s: %s", resp.Status, buf.Bytes())
	}
	return resp.Header.Get("X-Mdrs-Cached") == "true", nil
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// memStats is the part of runtime.MemStats the harness reads from the
// child's /debug/vars.
type memStats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// usage reads the child's cumulative CPU (user + system) from /proc and
// its allocation counters from /debug/vars.
func (s *server) usage(ctx context.Context) (usage, memStats, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return usage{}, memStats{}, err
	}
	// Fields are counted after the parenthesised command name, which may
	// itself contain spaces: utime and stime are fields 14 and 15.
	rest := string(stat)
	rest = rest[strings.LastIndexByte(rest, ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return usage{}, memStats{}, fmt.Errorf("short /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return usage{}, memStats{}, fmt.Errorf("bad CPU fields in /proc stat line %q", stat)
	}
	body, err := s.get(ctx, s.debugURL+"/debug/vars")
	if err != nil {
		return usage{}, memStats{}, err
	}
	var vars struct {
		MemStats memStats `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return usage{}, memStats{}, fmt.Errorf("parse /debug/vars: %w", err)
	}
	ms := vars.MemStats
	return usage{cpu: time.Duration(utime+stime) * clockTick, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}, ms, nil
}

// counters reads the child's service counters from /metricz.
func (s *server) counters(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	body, err := s.get(ctx, s.url+"/metricz")
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, fmt.Errorf("parse /metricz: %w", err)
	}
	return snap, nil
}
