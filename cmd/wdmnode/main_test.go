package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wdmsched/internal/telemetry"
)

// syncBuffer lets the test read run()'s log output while run is writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var telemetryAddrRE = regexp.MustCompile(`telemetry on http://([^ ]+) `)

// TestRunServesTelemetry boots a node on ephemeral ports, scrapes its
// telemetry endpoints, and shuts it down with the same signal systemd
// would send. The bound addresses are recovered from the startup log.
func TestRunServesTelemetry(t *testing.T) {
	var buf syncBuffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, &buf) }()

	var httpAddr string
	deadline := time.Now().Add(5 * time.Second)
	for httpAddr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("node never logged its telemetry address:\n%s", buf.String())
		}
		if m := telemetryAddrRE.FindStringSubmatch(buf.String()); m != nil {
			httpAddr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"wdm_node_frames_received_total", "wdm_node_schedule_frames_total", "wdm_node_sessions_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s:\n%s", want, metrics)
		}
	}
	spans := get("/spans")
	if !strings.Contains(spans, `"role":"node"`) {
		t.Errorf("/spans missing node meta line: %q", spans)
	}

	// signal.Notify in run() owns SIGTERM, so signalling ourselves shuts
	// the node down instead of killing the test binary.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d:\n%s", code, buf.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("node ignored SIGTERM:\n%s", buf.String())
	}
}

// TestRunFlagValidation covers the argument error paths.
func TestRunFlagValidation(t *testing.T) {
	var buf syncBuffer
	if code := run([]string{"-bogus"}, &buf); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	buf = syncBuffer{}
	if code := run([]string{"-spancap", "0"}, &buf); code != 2 {
		t.Fatalf("zero spancap: exit %d, want 2", code)
	}
	buf = syncBuffer{}
	if code := run([]string{"-listen", "127.0.0.1:0", "-http", "256.0.0.1:bad"}, &buf); code != 1 {
		t.Fatalf("bad http addr: exit %d, want 1", code)
	}
}

// TestSigquitBundle boots a node, sends SIGQUIT, and expects a
// flight-recorder bundle on disk while the node keeps serving — only the
// later SIGTERM shuts it down.
func TestSigquitBundle(t *testing.T) {
	bundle := filepath.Join(t.TempDir(), "node.tgz")
	var buf syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-bundle", bundle}, &buf)
	}()

	// Wait for the serve log: signal handlers are registered before it,
	// so from here SIGQUIT is owned by run(), not the Go runtime.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "serving on") {
		if time.Now().After(deadline) {
			t.Fatalf("node never started:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(bundle); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bundle never written:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	b, err := telemetry.ReadBundleFile(bundle)
	if err != nil {
		t.Fatalf("bundle does not decode: %v", err)
	}
	if b.Manifest.Tool != "wdmnode" || b.Manifest.Trigger != "sigquit" {
		t.Errorf("manifest %+v", b.Manifest)
	}
	raw, err := b.File("node.metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "wdm_node_") {
		t.Errorf("metric scrape carries no wdm_node_* series:\n%s", raw)
	}
	if !b.Has("node.spans") {
		t.Errorf("bundle missing node.spans (has %v)", b.Names())
	}

	// The dump must not have stopped the node.
	select {
	case code := <-done:
		t.Fatalf("node exited %d after SIGQUIT:\n%s", code, buf.String())
	default:
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d:\n%s", code, buf.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("node ignored SIGTERM:\n%s", buf.String())
	}
}
