package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerRoutes(t *testing.T) {
	r := NewRegistry()
	counter(r, "test_requests_total", "requests").Add(9)
	tr := NewTracer(8)
	tr.SetClock(newFakeClock().Now)
	tr.Begin("test", "span").End()

	srv := httptest.NewServer(Handler(r, tr))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "test_requests_total 9") {
		t.Fatalf("/metrics wrong (ct=%q):\n%s", ct, body)
	}

	body, ct = get("/debug/vars")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/vars content type %q", ct)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v\n%s", err, body)
	}
	if vars["test_requests_total"].(float64) != 9 {
		t.Fatalf("/debug/vars missing counter: %v", vars)
	}

	body, _ = get("/debug/trace")
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace not JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("/debug/trace has %d events, want 1", len(doc.TraceEvents))
	}

	body, _ = get("/debug/pprof/cmdline")
	if body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestListenAndServe(t *testing.T) {
	addr, err := ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
