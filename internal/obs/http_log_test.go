package obs

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInstrumentHandlerLogRequestID(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	correlate := func(r *http.Request) []any {
		return []any{"tenant", r.Header.Get("X-Test-Tenant")}
	}
	h := InstrumentHandlerLog(nil, "svc", "/v1/things", http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusTeapot)
		}), log, correlate)

	req := httptest.NewRequest(http.MethodGet, "/v1/things", nil)
	req.Header.Set("X-Test-Tenant", "alice")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	id := rec.Header().Get(RequestIDHeader)
	if id == "" {
		t.Fatal("no request ID header assigned")
	}
	line := buf.String()
	for _, want := range []string{"req=" + id, "route=/v1/things", "status=418", "tenant=alice"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}

	// A second request gets a distinct ID.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if id2 := rec2.Header().Get(RequestIDHeader); id2 == id {
		t.Errorf("request IDs not unique: %s", id2)
	}
}

func TestInstrumentHandlerLogNilBoth(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})
	// With neither a registry nor a logger the handler must come back
	// unwrapped — zero overhead for uninstrumented servers.
	h := InstrumentHandlerLog(nil, "svc", "/", inner, nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Header().Get(RequestIDHeader) != "" {
		t.Error("unwrapped handler should not assign request IDs")
	}
}

// TestStatusRecorderHijack drives a real connection takeover through the
// instrumented wrapper: a handler that type-asserts http.Hijacker must
// keep working behind the middleware.
func TestStatusRecorderHijack(t *testing.T) {
	reg := NewRegistry()
	h := InstrumentHandlerLog(reg, "svc", "/hijack", http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("instrumented writer lost http.Hijacker")
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			conn, rw, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			defer conn.Close()
			_, _ = rw.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\ntaken")
			_ = rw.Flush()
		}), nil, nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/hijack")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "taken" {
		t.Fatalf("hijacked response %q", body)
	}
}

func TestStatusRecorderHijackUnsupported(t *testing.T) {
	// httptest.ResponseRecorder is not a Hijacker: the wrapper must
	// report http.ErrNotSupported, not panic or pretend.
	rec := &statusRecorder{ResponseWriter: httptest.NewRecorder()}
	_, _, err := rec.Hijack()
	if !errors.Is(err, http.ErrNotSupported) {
		t.Fatalf("err = %v, want http.ErrNotSupported", err)
	}
}

// readerFromWriter counts ReadFrom delegations, proving the wrapper
// forwards to the underlying writer's zero-copy path.
type readerFromWriter struct {
	http.ResponseWriter
	buf       bytes.Buffer
	readFroms int
}

func (w *readerFromWriter) ReadFrom(src io.Reader) (int64, error) {
	w.readFroms++
	return w.buf.ReadFrom(src)
}

func TestStatusRecorderReadFromForwards(t *testing.T) {
	under := &readerFromWriter{ResponseWriter: httptest.NewRecorder()}
	rec := &statusRecorder{ResponseWriter: under}
	// Strip strings.Reader's WriterTo so io.Copy takes the destination's
	// ReaderFrom path — the one the wrapper must forward.
	src := struct{ io.Reader }{strings.NewReader("payload")}
	n, err := io.Copy(rec, src)
	if err != nil || n != 7 {
		t.Fatalf("copy: n=%d err=%v", n, err)
	}
	if under.readFroms != 1 {
		t.Errorf("underlying ReadFrom called %d times, want 1", under.readFroms)
	}
	if under.buf.String() != "payload" {
		t.Errorf("payload = %q", under.buf.String())
	}
	if rec.status != http.StatusOK {
		t.Errorf("implicit status = %d, want 200", rec.status)
	}
}

func TestStatusRecorderReadFromFallback(t *testing.T) {
	// The plain recorder has no ReadFrom: the wrapper must fall back to
	// a copy without recursing into its own ReadFrom.
	httpRec := httptest.NewRecorder()
	rec := &statusRecorder{ResponseWriter: httpRec}
	n, err := rec.ReadFrom(strings.NewReader("fallback"))
	if err != nil || n != 8 {
		t.Fatalf("fallback copy: n=%d err=%v", n, err)
	}
	if got := httpRec.Body.String(); got != "fallback" {
		t.Errorf("body = %q", got)
	}
}

// TestStatusRecorderUnwrap keeps http.ResponseController working through
// the wrapper.
func TestStatusRecorderUnwrap(t *testing.T) {
	srv := httptest.NewServer(InstrumentHandlerLog(NewRegistry(), "svc", "/rc", http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) {
			rc := http.NewResponseController(w)
			if err := rc.Flush(); err != nil {
				t.Errorf("ResponseController.Flush through wrapper: %v", err)
			}
			_, _ = io.WriteString(w, "ok")
		}), nil, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/rc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if b, _ := io.ReadAll(resp.Body); string(b) != "ok" {
		t.Fatalf("body %q", b)
	}
}
