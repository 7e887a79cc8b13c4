package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/rlplanner/rlplanner/internal/resilience/faultinject"
)

// startServe runs serve on an ephemeral port and returns the base URL,
// the signal channel and the exit channel.
func startServe(t *testing.T, drain time.Duration) (string, chan os.Signal, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(ln, stop, drain, "") }()
	url := "http://" + ln.Addr().String()
	waitReady(t, url)
	return url, stop, done
}

// waitReady polls until the daemon answers.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/api/engines")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became ready")
}

// TestServeStopsCleanlyWhenIdle: a signal with nothing in flight drains
// immediately and serve returns nil; the listener is closed.
func TestServeStopsCleanlyWhenIdle(t *testing.T) {
	url, stop, done := startServe(t, 5*time.Second)
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after SIGTERM")
	}
	if _, err := http.Get(url + "/api/engines"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeDrainsInFlightRequest: SIGTERM must stop new connections but
// let an in-flight training request finish and receive its response.
func TestServeDrainsInFlightRequest(t *testing.T) {
	fe, cleanup := faultinject.New("fault-drain")
	t.Cleanup(cleanup)
	fe.Set(faultinject.Hang)
	url, stop, done := startServe(t, 10*time.Second)

	type result struct {
		code int
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		body := fmt.Sprintf(`{"instance":%q,"engine":"fault-drain"}`, "Univ-1 M.S. DS-CT")
		resp, err := http.Post(url+"/api/plan", "application/json", strings.NewReader(body))
		if err != nil {
			resc <- result{0, err}
			return
		}
		resp.Body.Close()
		resc <- result{resp.StatusCode, nil}
	}()
	<-fe.HangStarted()

	stop <- syscall.SIGTERM
	// Give Shutdown a beat to close the listener, then prove the drain is
	// actually waiting on the in-flight request.
	time.Sleep(100 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("serve returned %v while a request was in flight", err)
	default:
	}

	fe.Set(faultinject.OK)
	fe.Release()
	r := <-resc
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.code != 200 {
		t.Fatalf("in-flight request got %d, want 200", r.code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after the drain completed")
	}
}

// TestServeDrainTimeoutForcesExit: when the grace period expires with a
// request still running, serve force-closes and reports the deadline
// error instead of hanging forever.
func TestServeDrainTimeoutForcesExit(t *testing.T) {
	fe, cleanup := faultinject.New("fault-wedge")
	t.Cleanup(cleanup)
	t.Cleanup(fe.Release) // unstick the handler goroutine at test end
	fe.Set(faultinject.Hang)
	url, stop, done := startServe(t, 200*time.Millisecond)

	go func() {
		body := fmt.Sprintf(`{"instance":%q,"engine":"fault-wedge"}`, "Univ-1 M.S. DS-CT")
		resp, err := http.Post(url+"/api/plan", "application/json", strings.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-fe.HangStarted()

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve = nil, want the expired drain deadline error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve hung past its drain timeout")
	}
}

// TestServeCutsOffHalfSentHeader: a client that opens a connection and
// stops halfway through its request header is answered 400 and
// disconnected once readHeaderTimeout has passed, instead of holding the
// connection and its goroutine forever.
func TestServeCutsOffHalfSentHeader(t *testing.T) {
	t.Parallel()
	url, stop, done := startServe(t, time.Second)
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("POST /api/plan HTTP/1.1\r\nHost: rlplannerd\r\nContent-")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection still open after %v: %v", elapsed.Round(time.Millisecond), err)
	}
	if elapsed < readHeaderTimeout-time.Second || len(got) > 0 && !strings.HasPrefix(string(got), "HTTP/1.1 400 ") {
		t.Fatalf("after %v the server answered %q and closed, want a 400 or nothing after %v",
			elapsed.Round(time.Millisecond), got, readHeaderTimeout)
	}
	stop <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("serve = %v", err)
	}
}
