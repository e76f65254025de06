package obs

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInstrumentHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	h := InstrumentHandlerLog(reg, "svc", "/v1/thing/{id}",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/thing/missing" {
				http.Error(w, "nope", http.StatusNotFound)
				return
			}
			w.Write([]byte("ok")) // implicit 200
		}), nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, p := range []string{"/v1/thing/a", "/v1/thing/b", "/v1/thing/missing"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	snap := reg.Snapshot()
	if got := snap[`svc_requests_total{route="/v1/thing/{id}",method="GET",code="200"}`]; got != 2 {
		t.Fatalf("200 count = %v, want 2", got)
	}
	if got := snap[`svc_requests_total{route="/v1/thing/{id}",method="GET",code="404"}`]; got != 1 {
		t.Fatalf("404 count = %v, want 1", got)
	}
	if got := snap[`svc_request_seconds_count{route="/v1/thing/{id}",method="GET"}`]; got != 3 {
		t.Fatalf("duration observations = %v, want 3", got)
	}
	if got := snap[`svc_requests_in_flight{route="/v1/thing/{id}"}`]; got != 0 {
		t.Fatalf("in-flight after completion = %v, want 0", got)
	}
}

// TestInstrumentHandlerForwardsFlush pins the SSE contract: the wrapped
// writer must still implement http.Flusher and actually deliver flushed
// bytes to the client before the handler returns.
func TestInstrumentHandlerForwardsFlush(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	h := InstrumentHandlerLog(reg, "svc", "/stream",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f, ok := w.(http.Flusher)
			if !ok {
				t.Error("instrumented writer lost http.Flusher")
				return
			}
			w.Header().Set("Content-Type", "text/event-stream")
			w.Write([]byte("data: first\n\n"))
			f.Flush()
			<-release
		}), nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The handler is still blocked on release: any readable line proves
	// the Flush reached the wire through the wrapper.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading flushed frame: %v", err)
	}
	if !strings.HasPrefix(line, "data: first") {
		t.Fatalf("unexpected frame %q", line)
	}
}
