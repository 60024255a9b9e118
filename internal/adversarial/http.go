package adversarial

import (
	"context"
	"net/http"

	"hsas/internal/campaign"
	"hsas/internal/httpjson"
	"hsas/internal/obs"
)

// ServerConfig parameterizes the adversarial HTTP handler.
type ServerConfig struct {
	// NewRunner builds the probe executor for each request — typically
	// a closure over the server's shared cache so warm searches are
	// pure cache hits. Required.
	NewRunner func() campaign.Runner
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
			httpjson.Error(w, http.StatusInternalServerError, "adversarial endpoint is not configured with a runner")
			return
		}
		var grid Grid
		if err := httpjson.Decode(w, r, 1<<20, &grid); err != nil {
			httpjson.Error(w, http.StatusBadRequest, "decoding adversarial grid: %v", err)
			return
		}

		// A write failure means the client hung up: cancel the search.
		// Progress runs on this goroutine and the last lines are written
		// after Run returns, so the stream needs no lock.
		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stream := httpjson.NewStream(w)
		send := func(v any) {
			if stream.Send(v) != nil {
				cancel()
			}
		}

		res, err := Run(ctx, Config{
			Grid:   grid,
			Runner: cfg.NewRunner(),
			Obs:    cfg.Obs,
			Progress: func(c Cell) {
				send(map[string]any{"cell": c})
			},
		})
		switch {
		case err != nil && !stream.Started():
			// Grid rejected before any cell completed: a plain JSON
			// error is kinder to clients than a stream.
			httpjson.Error(w, http.StatusBadRequest, "%v", err)
		case err != nil:
			send(map[string]any{"error": err.Error()})
		default:
			send(map[string]any{"done": true, "stats": res.Stats, "cells": res.Cells, "fault": res.Fault})
		}
	})
}
