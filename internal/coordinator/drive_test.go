package coordinator

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"syscall"
	"testing"

	"eqasm"
	"eqasm/internal/service"
	"eqasm/internal/wal"
)

// transient separates placement failures, worth re-queueing on another
// worker, from rejections any worker would repeat.
func TestTransient(t *testing.T) {
	dial := &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"503", &eqasm.ServiceError{StatusCode: http.StatusServiceUnavailable, Message: "queue full"}, true},
		{"500", &eqasm.ServiceError{StatusCode: http.StatusInternalServerError}, true},
		{"400", &eqasm.ServiceError{StatusCode: http.StatusBadRequest, Message: "empty source"}, false},
		{"wrapped 400", fmt.Errorf("worker: %w", &eqasm.ServiceError{StatusCode: http.StatusBadRequest}), false},
		{"dial", dial, true},
		{"url", &url.Error{Op: "Post", URL: "http://127.0.0.1:1/v1/batches", Err: errors.New("timeout")}, true},
		{"EOF", io.EOF, true},
		{"unexpected EOF", fmt.Errorf("read body: %w", io.ErrUnexpectedEOF), true},
		{"ECONNRESET", fmt.Errorf("read: %w", syscall.ECONNRESET), true},
		{"plain", errors.New("shot 3: operation collision"), false},
	}
	for _, tc := range cases {
		if got := transient(tc.err); got != tc.want {
			t.Errorf("%s: transient(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// requeueOrFail re-queues a request until it has used MaxAttempts
// dispatches, then fails it with the placement cause wrapped.
func TestRequeueOrFail(t *testing.T) {
	c := &Coordinator{cfg: Config{MaxAttempts: 3}, log: wal.Nop()}
	prog, err := eqasm.Assemble(service.SmokePrograms()["flip"])
	if err != nil {
		t.Fatal(err)
	}
	reqs := []eqasm.RunRequest{{Program: prog}, {Program: prog}, {Program: prog}}
	p, err := c.newPending("coord-000001", nil, reqs, service.PriorityNormal)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	p.attempts = []int{3, 2, 1}
	cause := errors.New("worker http://w1: connection refused")

	redo := c.requeueOrFail(p, []int{0, 1, 2}, cause)
	if fmt.Sprint(redo) != "[1 2]" {
		t.Fatalf("redo = %v, want [1 2]", redo)
	}
	sts := p.Job.Requests()
	if sts[0].State != eqasm.JobFailed || !p.terminal[0] {
		t.Fatalf("request 0 after %d attempts: state %s, terminal %v", p.attempts[0], sts[0].State, p.terminal[0])
	}
	if !errors.Is(sts[0].Err, cause) || !strings.Contains(sts[0].Err.Error(), "after 3 attempts") {
		t.Fatalf("request 0 error = %v, want the cause wrapped after 3 attempts", sts[0].Err)
	}
	for i := 1; i < len(reqs); i++ {
		if sts[i].State.Terminal() || p.terminal[i] {
			t.Fatalf("request %d with %d attempts settled as %s", i, p.attempts[i], sts[i].State)
		}
	}
}
