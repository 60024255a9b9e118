package adversarial

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hsas/internal/campaign"
	"hsas/internal/obs"
)

// ServerConfig parameterizes the adversarial HTTP handler.
type ServerConfig struct {
	// NewRunner builds the probe executor for each request — typically
	// a closure over the server's shared cache so warm searches are
	// pure cache hits. Required.
	NewRunner func() campaign.Runner
	// Parallel bounds concurrent cell searches per request (see
	// Config.Parallel).
	Parallel int
	// Obs receives metrics and logs.
	Obs *obs.Observer
}

// NewHandler serves POST /v1/adversarial: the request body is a Grid
// (JSON), the response is NDJSON — one {"cell": ...} line per completed
// cell as the search progresses, then a terminal {"done": true,
// "stats": ..., "cells": [...]} line carrying the full margin table in
// grid order. Validation errors fail with a JSON error before any
// streaming starts; errors mid-search terminate the stream with an
// {"error": ...} line.
func NewHandler(cfg ServerConfig) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cfg.NewRunner == nil {
			writeErr(w, http.StatusInternalServerError, "adversarial endpoint is not configured with a runner")
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		var grid Grid
		if err := dec.Decode(&grid); err != nil {
			writeErr(w, http.StatusBadRequest, "decoding adversarial grid: %v", err)
			return
		}

		fl, canFlush := w.(http.Flusher)
		flush := func() {
			if canFlush {
				fl.Flush()
			}
		}
		// An encode error means the client hung up: keep the first
		// error, write nothing more and cancel the search so no further
		// cells run. Progress calls are serialized and the last lines
		// are written after Run returns, so encErr needs no lock.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		enc := json.NewEncoder(w)
		headerSent := false
		var encErr error
		stream := func(v any) {
			if encErr != nil {
				return
			}
			if !headerSent {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				headerSent = true
			}
			if encErr = enc.Encode(v); encErr != nil {
				cancel()
				return
			}
			flush()
		}

		res, err := Run(ctx, Config{
			Grid:     grid,
			Runner:   cfg.NewRunner(),
			Parallel: cfg.Parallel,
			Obs:      cfg.Obs,
			Progress: func(c Cell) {
				stream(map[string]any{"cell": c})
			},
		})
		if err != nil {
			if !headerSent {
				// Grid rejected before any cell completed: a plain
				// JSON error is kinder to clients than a stream.
				writeErr(w, http.StatusBadRequest, "%v", err)
				return
			}
			stream(map[string]any{"error": err.Error()})
			return
		}
		stream(map[string]any{"done": true, "stats": res.Stats, "cells": res.Cells, "fault": res.Fault})
	})
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
