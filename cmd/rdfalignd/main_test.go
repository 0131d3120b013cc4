package main

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags: nonsensical sizing flags are rejected at startup with
// errors naming the flag, the value and the accepted range; the defaults
// and other in-range values pass.
func TestValidateFlags(t *testing.T) {
	ok := func(queryWorkers, alignJobs, alignWorkers, jobHistory int, queryTimeout time.Duration, maxBody int64) error {
		return validateFlags(queryWorkers, alignJobs, alignWorkers, jobHistory, queryTimeout, maxBody, "mem")
	}
	if err := ok(16, 1, 0, 64, 10*time.Second, 1<<30); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := ok(1, 8, 4, 1, time.Millisecond, 1); err != nil {
		t.Fatalf("valid extremes rejected: %v", err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"query-workers zero", ok(0, 1, 0, 64, time.Second, 1), "-query-workers 0 outside [1, ∞)"},
		{"query-workers negative", ok(-3, 1, 0, 64, time.Second, 1), "-query-workers -3 outside [1, ∞)"},
		{"align-jobs zero", ok(1, 0, 0, 64, time.Second, 1), "-align-jobs 0 outside [1, ∞)"},
		{"align-jobs negative", ok(1, -2, 0, 64, time.Second, 1), "-align-jobs -2 outside [1, ∞)"},
		{"align-workers negative", ok(1, 1, -1, 64, time.Second, 1), "-align-workers -1 outside [0, ∞)"},
		{"job-history zero", ok(1, 1, 0, 0, time.Second, 1), "-job-history 0 outside [1, ∞)"},
		{"query-timeout zero", ok(1, 1, 0, 64, 0, 1), "-query-timeout 0s outside (0, ∞)"},
		{"query-timeout negative", ok(1, 1, 0, 64, -time.Second, 1), "-query-timeout -1s outside (0, ∞)"},
		{"max-body-bytes zero", ok(1, 1, 0, 64, time.Second, 0), "-max-body-bytes 0 outside [1, ∞)"},
		{"bad storage mode", validateFlags(1, 1, 0, 64, time.Second, 1, "floppy"), `unknown -storage mode "floppy"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("invalid flags accepted")
			}
			if !strings.Contains(tc.err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", tc.err, tc.want)
			}
		})
	}
}

// TestNewHTTPServerTimeouts: the server bounds header reads and idle
// keep-alive connections, and sets no read or write timeout, which would
// cut off long streaming uploads and downloads.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer("127.0.0.1:0", h)
	if hs.Addr != "127.0.0.1:0" || hs.Handler == nil {
		t.Fatalf("server = %+v; want the given address and handler", hs)
	}
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout = %v, WriteTimeout = %v; want none (uploads and downloads stream)",
			hs.ReadTimeout, hs.WriteTimeout)
	}
}
