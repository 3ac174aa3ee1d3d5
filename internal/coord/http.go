package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// HTTP wire paths. The coordinator serves them; HTTPTransport calls them.
const (
	pathLease     = "/v1/lease"
	pathHeartbeat = "/v1/heartbeat"
	pathComplete  = "/v1/complete"
	pathFail      = "/v1/fail"
	pathStatus    = "/v1/status"
	pathMetrics   = "/metrics"
)

// NewHTTPHandler exposes a coordinator over HTTP: JSON requests in, JSON
// responses out, one path per Transport method.
func NewHTTPHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+pathLease, func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, c.Lease)
	})
	mux.HandleFunc("POST "+pathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, c.Heartbeat)
	})
	mux.HandleFunc("POST "+pathComplete, func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, c.Complete)
	})
	mux.HandleFunc("POST "+pathFail, func(w http.ResponseWriter, r *http.Request) {
		serveJSON(w, r, c.Fail)
	})
	mux.HandleFunc("GET "+pathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	// Live introspection: a deterministic JSON snapshot of the
	// coordinator's metrics registry (an empty object when the
	// coordinator runs uninstrumented) and the standard pprof surface,
	// mounted explicitly — the coordinator mux never touches
	// DefaultServeMux.
	mux.HandleFunc("GET "+pathMetrics, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		c.Obs().Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveJSON decodes one request body, applies handle and writes the reply.
func serveJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, handle func(Req) Resp) {
	var req Req
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return
	}
	writeJSON(w, handle(req))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response writer already committed; nothing useful to do.
		return
	}
}

// HTTPTransport is the worker-side client of a coordinator's HTTP API.
type HTTPTransport struct {
	// Base is the coordinator's base URL, e.g. "http://10.0.0.5:8344".
	Base string
	// Client defaults to a client with a 2-minute timeout (completion
	// payloads can be large; leases and heartbeats are tiny).
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 2 * time.Minute}
}

func (t *HTTPTransport) url(path string) string {
	return strings.TrimSuffix(t.Base, "/") + path
}

// post round-trips one JSON request.
func post[Req, Resp any](t *HTTPTransport, path string, req Req) (Resp, error) {
	var resp Resp
	body, err := json.Marshal(req)
	if err != nil {
		return resp, fmt.Errorf("coord: encoding %s request: %w", path, err)
	}
	hr, err := t.client().Post(t.url(path), "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return resp, fmt.Errorf("coord: %s: %s: %s", path, hr.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return resp, fmt.Errorf("coord: decoding %s response: %w", path, err)
	}
	return resp, nil
}

func (t *HTTPTransport) Lease(req LeaseRequest) (LeaseResponse, error) {
	return post[LeaseRequest, LeaseResponse](t, pathLease, req)
}

func (t *HTTPTransport) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	return post[HeartbeatRequest, HeartbeatResponse](t, pathHeartbeat, req)
}

func (t *HTTPTransport) Complete(req CompleteRequest) (CompleteResponse, error) {
	return post[CompleteRequest, CompleteResponse](t, pathComplete, req)
}

func (t *HTTPTransport) Fail(req FailRequest) (FailResponse, error) {
	return post[FailRequest, FailResponse](t, pathFail, req)
}

func (t *HTTPTransport) Status() (StatusResponse, error) {
	var resp StatusResponse
	hr, err := t.client().Get(t.url(pathStatus))
	if err != nil {
		return resp, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("coord: %s: %s", pathStatus, hr.Status)
	}
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return resp, fmt.Errorf("coord: decoding status: %w", err)
	}
	return resp, nil
}
