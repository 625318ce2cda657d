package obs

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// statusRecorder captures the response status and size for middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// statusClass buckets an HTTP status into "2xx".."5xx" — bounded label
// cardinality regardless of what handlers return.
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// InstrumentHandler wraps h with request metrics on reg:
//
//	http_requests_total{handler, code}   counter
//	http_request_seconds{handler}        histogram
//	http_in_flight{handler}              gauge
//	http_response_bytes_total{handler}   counter
//
// handler should be a short route-class name (e.g. "api", "admin"),
// not the raw path, to keep cardinality bounded.
func InstrumentHandler(reg *Registry, handler string, h http.Handler) http.Handler {
	if reg == nil {
		return h
	}
	hl := L("handler", handler)
	duration := reg.Histogram("http_request_seconds", LatencyBuckets, hl)
	inFlight := reg.Gauge("http_in_flight", hl)
	respBytes := reg.Counter("http_response_bytes_total", hl)
	// Pre-register the common classes so scrapes show the series at 0.
	for _, class := range []string{"2xx", "4xx", "5xx"} {
		reg.Counter("http_requests_total", hl, L("code", class))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		duration.Observe(time.Since(start).Seconds())
		reg.Counter("http_requests_total", hl, L("code", statusClass(rec.status))).Inc()
		respBytes.Add(uint64(rec.bytes))
	})
}

// NewServer returns an http.Server for h with the daemons' slow-client
// protections: a peer that stalls mid-headers or mid-body cannot pin a
// connection goroutine forever.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// LogRequests wraps h with structured request logging: one Info record
// per request with method, path, status, bytes and duration. A nil
// logger returns h unchanged.
func LogRequests(l *slog.Logger, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		l.Info("http request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration", time.Since(start),
			"remote", r.RemoteAddr,
		)
	})
}

// MetricsHandler serves the registry in Prometheus text format.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// VarsHandler serves the registry as a flat JSON object — the
// /debug/vars (expvar-style) view of the same series.
func VarsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
}

// AdminHandler builds the admin surface every daemon mounts:
//
//	GET /metrics       Prometheus text
//	GET /debug/vars    flat JSON of the same series
//	GET /healthz       liveness
//	GET /debug/pprof/  net/http/pprof (only when enablePprof)
//
// pprof is opt-in because profiling endpoints on a reachable port are
// a denial-of-service and information-disclosure surface; bind the
// admin listener to loopback and enable it deliberately.
func AdminHandler(reg *Registry, enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", MetricsHandler(reg))
	mux.Handle("GET /debug/vars", VarsHandler(reg))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
