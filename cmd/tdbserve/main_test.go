package main

import (
	"errors"
	"io"
	"net"
	"net/http"
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
