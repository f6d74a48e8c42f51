// Package httpapi is the HTTP/JSON front end of both serving tiers: the
// wire protocol behind cmd/eqasm-serve (over a service.Service) and
// cmd/eqasm-coord (over a coordinator.Coordinator), spoken by the
// public eqasm.Client. The JSON shapes live in internal/wire.
//
// Endpoints:
//
//	POST   /v1/batches      submit N programs as one queued unit
//	                        ({"requests": [{"source": ..., "shots": N, "seed": S, "tag": ...}, ...]};
//	                        a request's "format" is "eqasm" (default), "cqasm" or
//	                        "openqasm", and "wait": true makes the POST synchronous)
//	GET    /v1/batches/{id} batch status with per-request statuses, histograms and stats
//	DELETE /v1/batches/{id} cancel a batch
//	GET    /v1/stats        backend counters (queue depth, cache hits, batch stats)
//	GET    /healthz         liveness probe (503 while draining)
//
// A single job is a one-request batch.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"eqasm/internal/service"
	"eqasm/internal/wire"
)

// Backend is the serving tier the handler set fronts. Both
// *service.Service and *coordinator.Coordinator implement it, each
// over its own job type.
type Backend interface {
	// SubmitWire validates, resolves and admits a decoded batch; ctx
	// bounds the batch's lifetime.
	SubmitWire(ctx context.Context, req wire.BatchRequest) (wire.Batch, error)
	// Batch returns a submitted batch by ID, including recently
	// finished ones.
	Batch(id string) (wire.Batch, bool)
	// StatsPayload is the /v1/stats body, marshaled verbatim.
	StatsPayload() any
	// Draining reports the backend is refusing new work.
	Draining() bool
}

// Server is the HTTP/JSON front end over a Backend.
type Server struct {
	b Backend
}

// New builds a Server over b.
func New(b Backend) *Server {
	return &Server{b: b}
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	mux.HandleFunc("GET /v1/batches/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// maxRequestBytes bounds a batch submission body (programs are text;
// 8 MiB is orders of magnitude above any real payload).
const maxRequestBytes = 8 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// A waiting client that disconnects cancels its batch; an async
	// batch must outlive the request and is cancelled via DELETE
	// instead.
	ctx := context.Background()
	if req.Wait {
		ctx = r.Context()
	}
	batch, err := s.b.SubmitWire(ctx, req)
	switch {
	case err == nil:
	case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrClosed):
		// ErrDraining matches ErrClosed.
		httpError(w, http.StatusServiceUnavailable, err)
		return
	default:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, batch.Describe())
		return
	}
	select {
	case <-batch.Done():
	case <-r.Context().Done():
	}
	st := batch.Describe()
	if st.Status == wire.StateQueued {
		// The client went away while the batch was still queued.
		httpError(w, http.StatusRequestTimeout, r.Context().Err())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if batch, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, batch.Describe())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if batch, ok := s.lookup(w, r); ok {
		batch.Cancel()
		writeJSON(w, http.StatusOK, batch.Describe())
	}
}

// lookup resolves the {id} path value, answering 404 itself when the
// batch is unknown.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (wire.Batch, bool) {
	batch, ok := s.b.Batch(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown batch %q", r.PathValue("id")))
	}
	return batch, ok
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.StatsPayload())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// A draining backend is alive but out of rotation: 503 tells load
	// balancers and the coordinator to stop steering work here while
	// in-flight batches finish.
	if s.b.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("httpapi: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
