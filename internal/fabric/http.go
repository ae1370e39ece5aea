package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"modemerge/internal/incr"
)

// Wire API, version 1. All routes live under /fabric/v1/ on the
// coordinator; workers are pure clients. The surface is deliberately
// tiny — join, poll, complete, plus a blob passthrough exporting the
// coordinator's artifact store — and versioned by path so a v2 can
// coexist during rolling upgrades. These are cluster-internal routes:
// they are documented in docs/api.md, not in the public OpenAPI
// document.
//
//	POST /fabric/v1/join      {worker_id, addr, version} → {lease_ttl_ms}
//	POST /fabric/v1/poll      {worker_id, wait_ms}       → 200 {spec} | 204
//	POST /fabric/v1/complete  {worker_id, key, error}    → 204
//	ANY  /fabric/v1/blobs/<granularity>/<key>            → incr blob protocol

const maxWireBytes = 64 << 20 // specs carry whole netlists

type joinRequest struct {
	WorkerID string `json:"worker_id"`
	Addr     string `json:"addr,omitempty"`
	Version  int    `json:"version"`
}

type joinResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

type pollRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

type completeRequest struct {
	WorkerID string `json:"worker_id"`
	Key      string `json:"key"`
	Error    string `json:"error,omitempty"`
}

// Handler serves the fabric wire API over this coordinator. Mount it at
// the server root; it matches only /fabric/v1/ paths.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if !decodeWire(w, r, &req) {
			return
		}
		if req.Version != WireVersion {
			httpError(w, http.StatusConflict,
				fmt.Sprintf("fabric wire version mismatch: coordinator %d, worker %d", WireVersion, req.Version))
			return
		}
		if err := c.Join(req.WorkerID, req.Addr); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, joinResponse{LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()})
	})
	mux.HandleFunc("POST /fabric/v1/poll", func(w http.ResponseWriter, r *http.Request) {
		var req pollRequest
		if !decodeWire(w, r, &req) {
			return
		}
		wait := time.Duration(req.WaitMS) * time.Millisecond
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
		spec, err := c.Claim(r.Context(), req.WorkerID, wait)
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		if spec == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, spec)
	})
	mux.HandleFunc("POST /fabric/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeWire(w, r, &req) {
			return
		}
		if err := c.Complete(req.WorkerID, req.Key, req.Error); err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("/fabric/v1/blobs/", http.StripPrefix("/fabric/v1/blobs", incr.NewBlobHandler(c.store)))
	return mux
}

func decodeWire(w http.ResponseWriter, r *http.Request, into any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "request too large")
		return false
	}
	if err := json.Unmarshal(body, into); err != nil {
		httpError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Client is the worker side of the wire API.
type Client struct {
	base   string
	client *http.Client
}

// NewClient creates a wire client for the coordinator at baseURL (e.g.
// "http://coordinator:8080"). A nil httpClient uses a dedicated client
// with no global timeout (polls long-poll; per-call contexts bound
// them).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), client: httpClient}
}

// BlobStore returns the coordinator's artifact store as seen over the
// blob passthrough.
func (cl *Client) BlobStore() incr.BlobStore {
	return incr.NewHTTPStore(cl.base+"/fabric/v1/blobs", nil)
}

func (cl *Client) post(path string, req, into any) (int, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	resp, err := cl.client.Post(cl.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// Same cap as the server's decodeWire: poll responses carry whole
	// netlists, so a tighter client-side limit would truncate big specs.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxWireBytes))
	switch resp.StatusCode {
	case http.StatusOK:
		if into != nil {
			if err := json.Unmarshal(body, into); err != nil {
				return resp.StatusCode, fmt.Errorf("fabric: malformed response from %s: %w", path, err)
			}
		}
		return resp.StatusCode, nil
	case http.StatusNoContent:
		return resp.StatusCode, nil
	default:
		var e struct {
			Error string `json:"error"`
		}
		se := &StatusError{Path: path, Status: resp.StatusCode, Msg: "unexpected status " + resp.Status}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			se.Msg = e.Error
		}
		return resp.StatusCode, se
	}
}

// StatusError is a wire call the coordinator answered with an error
// status. Msg is the coordinator's error message.
type StatusError struct {
	Path   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return fmt.Sprintf("fabric: %s: %s", e.Path, e.Msg) }

// Join registers with the coordinator and returns its lease TTL.
func (cl *Client) Join(workerID, addr string) (time.Duration, error) {
	var resp joinResponse
	_, err := cl.post("/fabric/v1/join", joinRequest{WorkerID: workerID, Addr: addr, Version: WireVersion}, &resp)
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.LeaseTTLMS) * time.Millisecond, nil
}

// Poll long-polls for the next clique job; nil spec means no work.
func (cl *Client) Poll(workerID string, wait time.Duration) (*Spec, error) {
	var spec Spec
	status, err := cl.post("/fabric/v1/poll", pollRequest{WorkerID: workerID, WaitMS: wait.Milliseconds()}, &spec)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	return &spec, nil
}

// Complete reports one job's outcome (empty execErr = success; the
// artifact must already be in the shared store).
func (cl *Client) Complete(workerID, key, execErr string) error {
	_, err := cl.post("/fabric/v1/complete", completeRequest{WorkerID: workerID, Key: key, Error: execErr}, nil)
	return err
}
