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
	"strconv"
	"strings"
	"syscall"
	"time"

	"tdb"
	"tdb/internal/server"
)

// serverProc is one tdbserve subprocess on a loopback port.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	done    chan error
	started time.Time
}

// startServer launches tdbserve with args plus a free loopback -addr. env
// entries are added to the inherited environment.
func startServer(cfg config, name string, args, env []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(cfg.work, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(cfg.tdbserve, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), env...)
	p := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, done: make(chan error, 1)}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tdbserve: %w", err)
	}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200. A refused connection
// is retried after a millisecond.
func (p *serverProc) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("tdbserve exited during start-up (%v): %s", err, p.logTail())
		default:
		}
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("tdbserve not healthy after %v: %s", timeout, p.logTail())
}

// kill sends SIGKILL and waits for the process to end.
func (p *serverProc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	err := <-p.done
	p.done <- err
}

// pid returns the process id.
func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) logTail() string {
	b, _ := os.ReadFile(p.logPath) // diagnostics only
	s := strings.TrimSpace(string(b))
	if len(s) > 600 {
		s = s[len(s)-600:]
	}
	return s
}

// log returns the server's combined output so far.
func (p *serverProc) log() []byte {
	b, _ := os.ReadFile(p.logPath) // a missing log reads as empty
	return b
}

// newClient returns an HTTP client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body and returns the status and response body. The caller
// times the call; decoding happens after the timer stops.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func postJSON(c *http.Client, url string, req, v any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	code, b, err := post(c, url, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, code, b)
	}
	return json.Unmarshal(b, v)
}

func (p *serverProc) stats(c *http.Client) (*server.StatsResponse, error) {
	var st server.StatsResponse
	return &st, getJSON(c, p.base+"/v1/stats", &st)
}

func (p *serverProc) cover(c *http.Client) (*server.CoverResponse, error) {
	var cv server.CoverResponse
	return &cv, postJSON(c, p.base+"/v1/cover", struct{}{}, &cv)
}

// query is one /v1/cycle request and its answer.
type query struct {
	src  tdb.VID
	code int
	resp server.CycleResponse
}

// cycleBody encodes a /v1/cycle request.
func cycleBody(src tdb.VID) []byte { return []byte(`{"source":` + strconv.Itoa(int(src)) + `}`) }

// reader is one closed-loop connection sending /v1/cycle requests, one
// source after another, keeping its answers and latencies across calls of
// run. With a tracer, every other request is traced and its latency is
// kept apart, so the tracing overhead is measured within the run.
type reader struct {
	c       *http.Client
	base    string
	srcs    []tdb.VID
	pause   time.Duration // think time after each answer
	tr      *tracer
	answers []query
	lat     sample // untraced requests
	traced  sample
}

// run sends requests until stop is closed or, with stop nil, until the
// deadline once at least minCount requests have been sent by this call.
func (r *reader) run(ctx context.Context, until time.Time, minCount int, stop <-chan struct{}) error {
	for n := 0; ; n++ {
		if stop != nil {
			select {
			case <-stop:
				return nil
			default:
			}
		} else if !time.Now().Before(until) && n >= minCount {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		i := len(r.answers)
		src := r.srcs[i%len(r.srcs)]
		body := cycleBody(src)
		var t *tracer
		if r.tr != nil && i%2 == 0 {
			t = r.tr
		}
		root := t.begin(int64(i), -1, "bench.op")
		call := t.begin(int64(i), root, "client.POST /v1/cycle")
		t0 := time.Now()
		code, b, err := post(r.c, r.base+"/v1/cycle", body)
		d := time.Since(t0)
		t.end(call)
		if err != nil {
			t.end(root)
			return err
		}
		q := query{src: src, code: code}
		if code == http.StatusOK {
			dec := t.begin(int64(i), root, "bench.decode")
			err = json.Unmarshal(b, &q.resp)
			t.end(dec)
			if err != nil {
				t.end(root)
				return fmt.Errorf("decoding /v1/cycle answer: %w", err)
			}
		}
		t.end(root)
		r.answers = append(r.answers, q)
		if t != nil {
			r.traced.add(d)
		} else {
			r.lat.add(d)
		}
		if r.pause > 0 {
			time.Sleep(r.pause)
		}
	}
}

// countStatus records a non-2xx answer by kind.
func countStatus(rep *report, code int) {
	switch code {
	case http.StatusTooManyRequests:
		rep.fail("shed_429")
	case http.StatusGatewayTimeout:
		rep.fail("deadline_504")
	default:
		rep.fail(fmt.Sprintf("status_%d", code))
	}
}

// gcTrace sums the GODEBUG=gctrace=1 lines in a server log: cycles and
// stop-the-world pause (sweep termination + mark termination wall clock).
func gcTrace(log []byte) (cycles int, pauseMS float64) {
	for _, line := range strings.Split(string(log), "\n") {
		if !strings.HasPrefix(line, "gc ") {
			continue
		}
		_, rest, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		clock, _, _ := strings.Cut(rest, " ms clock")
		parts := strings.Split(clock, "+")
		if len(parts) != 3 {
			continue
		}
		a, err1 := strconv.ParseFloat(parts[0], 64)
		c, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		cycles++
		pauseMS += a + c
	}
	return cycles, pauseMS
}
