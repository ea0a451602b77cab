package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected: a client that sends part of a request
// header and then stalls must lose its connection once readHeaderTimeout
// passes, while complete requests are still served.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	go srv.Serve(ln)
	defer srv.Close()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("complete request: status %d, want 204", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	conn.SetReadDeadline(start.Add(readHeaderTimeout + slack))
	_, err = io.Copy(io.Discard, conn) // returns once the server hangs up
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a partial header", readHeaderTimeout+slack)
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %v, before the header timeout %v", elapsed, readHeaderTimeout)
	}
}

// TestSlowBodyClientDisconnected: a client that sends a complete header and
// then trickles its body must not hold the handler (and with it an
// admission token) past readTimeout.
func TestSlowBodyClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn,
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n{"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	conn.SetReadDeadline(start.Add(readTimeout + slack))
	_, err = io.Copy(io.Discard, conn) // returns once the server answers and hangs up
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a partial body", readTimeout+slack)
	}
	if elapsed := time.Since(start); elapsed < readTimeout/2 {
		t.Fatalf("disconnected after %v, before the read timeout %v", elapsed, readTimeout)
	}
}

// TestRunFlagErrors: misconfigured flags must make run return an error
// before it binds a listener. Each case gets an unused loopback address, so
// a case that wrongly got as far as serving would block rather than fail;
// the timeout turns that into a test failure.
func TestRunFlagErrors(t *testing.T) {
	dir := t.TempDir()
	seed := filepath.Join(dir, "seed.txt")
	if err := os.WriteFile(seed, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bogus fsync", []string{"-fsync", "bogus"}, "unknown fsync policy"},
		{"mmap without graph", []string{"-store", "mmap"}, "-store mmap requires -graph"},
		{"bogus store", []string{"-store", "bogus", "-graph", seed}, `unknown -store "bogus"`},
		{"missing graph", []string{"-graph", filepath.Join(dir, "missing.txt")}, "loading graph"},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errc := make(chan error, 1)
			go func() { errc <- run(append([]string{"-addr", "127.0.0.1:0"}, tc.args...)) }()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run(%q) did not return: it got past flag validation", tc.args)
			}
		})
	}
}
