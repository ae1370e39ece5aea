package service

// The API gate: docs/openapi.yaml is hand-written (no YAML dependency
// in this module), so these tests hold it to the server with plain text
// checks — every served /v2 route must be documented, every documented
// path must be served, and every stable error code must appear in the
// spec. CI runs this package, so drifting the spec or the router alone
// fails the build.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const openapiPath = "../../docs/openapi.yaml"

// openapiPaths extracts the path keys of the spec's `paths:` section:
// lines indented exactly two spaces, starting with /, ending with a
// colon.
func openapiPaths(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(openapiPath)
	if err != nil {
		t.Fatalf("reading the OpenAPI document: %v", err)
	}
	pathKey := regexp.MustCompile(`^  (/[^\s:]*):\s*$`)
	inPaths := false
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "paths:"):
			inPaths = true
			continue
		case inPaths && len(line) > 0 && line[0] != ' ' && line[0] != '#':
			inPaths = false // next top-level section
		}
		if !inPaths {
			continue
		}
		if m := pathKey.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("no paths found in the OpenAPI document — has its structure changed?")
	}
	return out
}

// TestOpenAPICoversV2Routes: served ⊆ documented and documented ⊆
// served, on the path portion of the route patterns.
func TestOpenAPICoversV2Routes(t *testing.T) {
	documented := openapiPaths(t)

	served := map[string]bool{}
	for _, pattern := range V2Routes() {
		_, path, ok := strings.Cut(pattern, " ")
		if !ok {
			t.Fatalf("route pattern %q has no method", pattern)
		}
		served[path] = true
	}

	for path := range served {
		if !documented[path] {
			t.Errorf("served route %s is not documented in docs/openapi.yaml", path)
		}
	}
	for path := range documented {
		if !served[path] {
			t.Errorf("documented path %s is not served (see service.V2Routes)", path)
		}
	}
	if t.Failed() {
		t.Logf("served: %v", sorted(served))
		t.Logf("documented: %v", sorted(documented))
	}
}

// TestOpenAPIDocumentsErrorCodes: every stable error code the handlers
// can emit appears in the spec's ErrorResponse enum (and vice versa the
// enum lists no unknown codes).
func TestOpenAPIDocumentsErrorCodes(t *testing.T) {
	data, err := os.ReadFile(openapiPath)
	if err != nil {
		t.Fatal(err)
	}
	spec := string(data)
	for _, code := range []string{
		codeInvalidRequest, codePayloadTooLarge, codeNotFound, codeConflict,
		codeIdempotencyMismatch, codeRateLimited, codeUnavailable,
	} {
		if !strings.Contains(spec, "- "+code) {
			t.Errorf("error code %q is not in the OpenAPI ErrorResponse enum", code)
		}
	}
}

// TestOpenAPIVersionHeader pins the top-level document shape the text
// extraction above depends on.
func TestOpenAPIVersionHeader(t *testing.T) {
	data, err := os.ReadFile(openapiPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "openapi: 3.1.0") {
		t.Error("docs/openapi.yaml does not declare openapi: 3.1.0")
	}
	if !strings.Contains(string(data), "\npaths:\n") {
		t.Error("docs/openapi.yaml has no top-level paths: section")
	}
}

func sorted(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestOpenAPIRouteSurface: Handler serves exactly the documented /v2
// routes plus the unversioned /metrics and /healthz (and the fabric wire
// API when the fabric is on). The retired /v1 routes and /debug/vars
// answer 404.
func TestOpenAPIRouteSurface(t *testing.T) {
	removed := []string{
		"POST /v1/merge", "GET /v1/jobs/j000001", "GET /v1/jobs/j000001/result",
		"GET /v1/jobs/j000001/trace", "POST /v1/jobs/j000001/cancel", "GET /v1/stats",
		"GET /debug/vars",
	}
	for _, fabricOn := range []bool{false, true} {
		s := newTestServer(t, Config{Workers: 1, Fabric: FabricConfig{Enabled: fabricOn}})
		mux, ok := s.Handler().(*http.ServeMux)
		if !ok {
			t.Fatalf("Handler is a %T, want *http.ServeMux", s.Handler())
		}
		allowed := map[string]bool{"GET /metrics": true, "GET /healthz": true}
		for _, pattern := range V2Routes() {
			allowed[pattern] = true
		}
		if fabricOn {
			allowed["/fabric/v1/"] = true
		}
		probes := append([]string{"GET /", "GET /v2/", "GET /fabric/v1/poll", "GET /debug/pprof/"}, removed...)
		for pattern := range allowed {
			probes = append(probes, strings.Replace(pattern, "{id}", "j000001", 1))
		}
		served := map[string]bool{}
		for _, probe := range probes {
			method, path, _ := strings.Cut(probe, " ")
			if method == "" || path == "" {
				method, path = http.MethodGet, probe
			}
			_, pattern := mux.Handler(httptest.NewRequest(method, path, nil))
			if pattern == "" {
				continue
			}
			if !allowed[pattern] {
				t.Errorf("fabric=%v: %s is served by unexpected route %q", fabricOn, probe, pattern)
			}
			served[pattern] = true
		}
		for pattern := range allowed {
			if !served[pattern] {
				t.Errorf("fabric=%v: route %q is not served", fabricOn, pattern)
			}
		}

		ts := httptest.NewServer(mux)
		for _, probe := range removed {
			method, path, _ := strings.Cut(probe, " ")
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("fabric=%v: %s = %d, want 404", fabricOn, probe, resp.StatusCode)
			}
		}
		ts.Close()
	}
}
