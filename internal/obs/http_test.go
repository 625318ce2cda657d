package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestInstrumentHandler(t *testing.T) {
	r := NewRegistry()
	h := InstrumentHandler(r, "api", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/boom" {
			http.Error(w, "no", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("hello"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/ok")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	if v, _ := r.Value("http_requests_total", L("handler", "api"), L("code", "2xx")); v != 3 {
		t.Errorf("2xx = %v, want 3", v)
	}
	if v, _ := r.Value("http_requests_total", L("handler", "api"), L("code", "5xx")); v != 1 {
		t.Errorf("5xx = %v, want 1", v)
	}
	// "hello"×3 plus http.Error's "no\n".
	if v, _ := r.Value("http_response_bytes_total", L("handler", "api")); v != 3*5+3 {
		t.Errorf("response bytes = %v, want 18", v)
	}
	hist := r.Histogram("http_request_seconds", LatencyBuckets, L("handler", "api"))
	if hist.Count() != 4 {
		t.Errorf("duration observations = %d, want 4", hist.Count())
	}
	if v, _ := r.Value("http_in_flight", L("handler", "api")); v != 0 {
		t.Errorf("in-flight after completion = %v", v)
	}
}

func TestAdminHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ingest_records_total").Add(11)
	RegisterProcessMetrics(r)
	srv := httptest.NewServer(AdminHandler(r, true))
	defer srv.Close()

	get := func(path string) (string, int) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String(), resp.StatusCode
	}

	body, code := get("/metrics")
	if code != 200 || !strings.Contains(body, "ingest_records_total 11") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.Contains(body, "process_goroutines") {
		t.Error("/metrics missing process metrics")
	}

	body, code = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: code=%d", code)
	}
	var vars map[string]float64
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars["ingest_records_total"] != 11 {
		t.Errorf("vars ingest_records_total = %v", vars["ingest_records_total"])
	}

	if _, code = get("/healthz"); code != 200 {
		t.Errorf("/healthz code = %d", code)
	}
	if body, code = get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("pprof cmdline: code=%d body=%q", code, body)
	}

	// pprof off by default.
	srv2 := httptest.NewServer(AdminHandler(r, false))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof reachable without opt-in")
	}
}

func TestLogRequests(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	h := LogRequests(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/tea")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := buf.String()
	if !strings.Contains(out, "path=/tea") || !strings.Contains(out, "status=418") {
		t.Errorf("request log missing fields: %q", out)
	}
}
