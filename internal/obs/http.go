package obs

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// HTTP server instrumentation for the campaign service. One middleware
// wraps every route of `gemstone serve`, emits the request-level RED
// metrics (rate, errors, duration) under a service-scoped prefix, and —
// when a logger is supplied — assigns each request an ID and logs its
// completion with whatever correlation attributes the service extracts
// (tenant, campaign), so a single registry and log stream carry the whole
// HTTP surface without per-handler boilerplate.

// httpDurationBounds buckets request latency from sub-millisecond JSON
// handlers out to multi-minute SSE streams that stay open for a whole
// campaign.
var httpDurationBounds = []float64{
	0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300, 1800,
}

// RequestIDHeader carries the per-request ID assigned by the logging
// middleware, echoed on the response so clients can quote it back.
const RequestIDHeader = "X-Gemstone-Request-ID"

// reqSeq numbers requests process-wide; the ID ties a response to its
// log line, so uniqueness within one process lifetime is all it needs.
var reqSeq atomic.Int64

// statusRecorder captures the response status code while passing the
// writer through. It forwards the optional interfaces streaming and
// file-serving handlers probe for — http.Flusher, http.Hijacker,
// io.ReaderFrom — because a wrapper that hid them would silently buffer
// SSE streams or disable sendfile. ResponseController reaches the
// underlying writer through Unwrap as well.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack forwards connection takeover when the underlying writer
// supports it; otherwise it reports http.ErrNotSupported like net/http
// itself does, instead of hiding the capability probe.
func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := r.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, fmt.Errorf("obs: response writer does not support hijacking: %w", http.ErrNotSupported)
}

// ReadFrom keeps the underlying writer's zero-copy path (sendfile)
// reachable through the wrapper. The implicit 200 is recorded exactly as
// Write would, and the fallback copies through the plain writer without
// re-probing ReaderFrom on the recorder itself.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(writerOnly{r.ResponseWriter}, src)
}

// writerOnly strips every optional interface so io.Copy cannot loop back
// into a ReaderFrom probe.
type writerOnly struct{ io.Writer }

// Unwrap exposes the wrapped writer to http.ResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// InstrumentHandlerLog wraps h with request metrics labelled by route (a
// static pattern like "/v1/campaigns/{id}/events", never the raw URL —
// raw paths would explode series cardinality), method and status code:
//
//	<name>_requests_total{route,method,code}
//	<name>_requests_in_flight{route}
//	<name>_request_seconds{route,method}
//
// and with request logging: every request is assigned an ID (echoed in
// the X-Gemstone-Request-ID response header) and logged on completion
// with method, route, status, duration and whatever attributes correlate
// extracts from the request (the campaign service returns tenant and
// campaign ID). A nil log disables the logging side, a nil reg the
// metrics side; with both nil the handler is returned unwrapped. The
// route label is passed explicitly rather than read back from the
// request so the middleware works on any Go 1.22 mux.
func InstrumentHandlerLog(reg *Registry, name, route string, h http.Handler,
	log *slog.Logger, correlate func(*http.Request) []any) http.Handler {
	if reg == nil && log == nil {
		return h
	}
	var (
		total    *Counter
		inflight *Gauge
		seconds  *Histogram
	)
	if reg != nil {
		total = reg.Counter(name+"_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code")
		inflight = reg.Gauge(name+"_requests_in_flight",
			"HTTP requests currently being served, by route.", "route")
		seconds = reg.Histogram(name+"_request_seconds",
			"HTTP request duration in seconds, by route and method.",
			httpDurationBounds, "route", "method")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		var reqID string
		if log != nil {
			reqID = fmt.Sprintf("r%06d", reqSeq.Add(1))
			w.Header().Set(RequestIDHeader, reqID)
		}
		if inflight != nil {
			inflight.Add(1, route)
		}
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			elapsed := time.Since(start)
			code := rec.status
			if code == 0 { // handler never wrote; net/http sends 200
				code = http.StatusOK
			}
			if inflight != nil {
				inflight.Add(-1, route)
				seconds.Observe(elapsed.Seconds(), route, req.Method)
				total.Inc(route, req.Method, strconv.Itoa(code))
			}
			if log != nil {
				attrs := []any{
					"req", reqID, "method", req.Method, "route", route,
					"status", code, "dur", elapsed.Round(time.Microsecond).String(),
				}
				if correlate != nil {
					attrs = append(attrs, correlate(req)...)
				}
				level := slog.LevelDebug
				if code >= 500 {
					level = slog.LevelWarn
				} else if code >= 400 {
					level = slog.LevelInfo
				}
				log.Log(req.Context(), level, "http request", attrs...)
			}
		}()
		h.ServeHTTP(rec, req)
	})
}
