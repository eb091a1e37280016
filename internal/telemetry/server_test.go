package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServerEndpoints starts the telemetry server on a free port and
// checks the three endpoint families the CLI advertises: Prometheus
// text exposition, expvar JSON (with the registry under the
// "storeatomicity" key), and net/http/pprof.
func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("enum_forks_total", "forks").Add(0, 11)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "enum_forks_total 11") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	body, _ = get("/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(vars["storeatomicity"], &snap); err != nil {
		t.Fatalf("storeatomicity expvar: %v", err)
	}
	if snap["enum_forks_total"] != 11 {
		t.Errorf("expvar enum_forks_total = %d, want 11", snap["enum_forks_total"])
	}

	get("/debug/pprof/cmdline")
}

// TestServeTwicePublishesLatest: expvar.Publish panics on duplicate
// names, so a second Serve (a new registry in the same process) must
// swap the published pointer instead of re-publishing.
func TestServeTwicePublishesLatest(t *testing.T) {
	r1 := NewRegistry()
	r1.NewCounter("old_total", "first registry").Inc(0)
	s1, err := Serve("127.0.0.1:0", r1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	r2 := NewRegistry()
	r2.NewCounter("new_total", "second registry").Add(0, 3)
	s2, err := Serve("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	resp, err := http.Get("http://" + s2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.Unmarshal(vars["storeatomicity"], &snap); err != nil {
		t.Fatal(err)
	}
	if _, stale := snap["old_total"]; stale {
		t.Error("expvar still serving the first registry")
	}
	if snap["new_total"] != 3 {
		t.Errorf("new_total = %d, want 3", snap["new_total"])
	}
}
