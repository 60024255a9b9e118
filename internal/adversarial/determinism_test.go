package adversarial

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hsas/internal/campaign"
	"hsas/internal/fabric"
	"hsas/internal/knobs"
)

// tinyGrid is the cheapest meaningful search: one situation, one case
// cell plus one fixed-setting cell, at a 64x32 camera.
func tinyGrid() Grid {
	return Grid{
		Situations: []int{1},
		Cases:      []int{1},
		Settings:   []knobs.Setting{{ISP: "S0", ROI: 2, SpeedKmph: 30}},
		Width:      64, Height: 32,
		Seed:  1,
		Fault: "noise:mag=$mag",
		Lo:    0, Hi: 0.6, Tol: 0.15,
		Refine: 1,
	}
}

func marginCSV(t *testing.T, res *Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := res.FormatCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestSearchDeterminismAcrossRunners is the satellite determinism test:
// the same search run serially, with 4 engine workers, and against a
// 2-worker in-process fabric produces byte-identical margin tables, and
// a warm re-run performs zero simulations with the cache-hit counter
// pinned.
func TestSearchDeterminismAcrossRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~30 closed-loop simulations")
	}
	ctx := context.Background()
	grid := tinyGrid()

	// Variant 1: serial engine.
	serialCache := campaign.NewMemCache()
	serial, err := Run(ctx, Config{
		Grid:   grid,
		Runner: &campaign.Engine{Workers: 1, KernelWorkers: 1, Cache: serialCache},
	})
	if err != nil {
		t.Fatal(err)
	}
	serialCSV := marginCSV(t, serial)
	if serial.Stats.Simulated == 0 {
		t.Fatal("cold serial search simulated nothing")
	}

	// Variant 2: 4 engine workers.
	par, err := Run(ctx, Config{
		Grid:   grid,
		Runner: &campaign.Engine{Workers: 4, KernelWorkers: 1, Cache: campaign.NewMemCache()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if csv := marginCSV(t, par); csv != serialCSV {
		t.Errorf("4-worker table differs from serial:\n%s\nvs\n%s", csv, serialCSV)
	}

	// Variant 3: a 2-worker in-process fabric.
	var urls []string
	for i := 0; i < 2; i++ {
		w := fabric.NewWorker(fabric.WorkerConfig{Workers: 2, KernelWorkers: 1})
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Run(ctx, Config{Grid: grid, Runner: coord})
	if err != nil {
		t.Fatal(err)
	}
	if csv := marginCSV(t, fab); csv != serialCSV {
		t.Errorf("fabric table differs from serial:\n%s\nvs\n%s", csv, serialCSV)
	}

	// Warm re-run against the serial variant's cache: the probe
	// sequence is deterministic, so every job is already cached — zero
	// simulations, every unique probe a cache hit.
	warm, err := Run(ctx, Config{
		Grid:   grid,
		Runner: &campaign.Engine{Workers: 4, KernelWorkers: 1, Cache: serialCache},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulated != 0 {
		t.Errorf("warm re-run simulated %d jobs, want 0", warm.Stats.Simulated)
	}
	wantHits := serial.Stats.CacheHits + serial.Stats.Simulated
	if warm.Stats.CacheHits != wantHits {
		t.Errorf("warm cache hits = %d, want %d (cold hits %d + cold sims %d)",
			warm.Stats.CacheHits, wantHits, serial.Stats.CacheHits, serial.Stats.Simulated)
	}
	if csv := marginCSV(t, warm); csv != serialCSV {
		t.Errorf("warm table differs from cold:\n%s\nvs\n%s", csv, serialCSV)
	}
}

// TestHandlerStreamsCellsAndTable exercises POST /v1/adversarial
// end-to-end on a 1-cell grid: NDJSON cell lines followed by a done
// line whose table matches a direct Run.
func TestHandlerStreamsCellsAndTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs closed-loop simulations")
	}
	cache := campaign.NewMemCache()
	h := NewHandler(ServerConfig{
		NewRunner: func() campaign.Runner {
			return &campaign.Engine{Workers: 2, KernelWorkers: 1, Cache: cache}
		},
	})

	grid := `{"situations":[1],"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],` +
		`"width":64,"height":32,"fault":"noise:mag=$mag","hi":0.6,"tol":0.6}`
	req := httptest.NewRequest("POST", "/v1/adversarial", strings.NewReader(grid))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2 (one cell + done):\n%s", len(lines), rec.Body.String())
	}
	var cellLine struct {
		Cell *Cell `json:"cell"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &cellLine); err != nil || cellLine.Cell == nil {
		t.Fatalf("first line is not a cell: %q (%v)", lines[0], err)
	}
	var done struct {
		Done  bool              `json:"done"`
		Cells []Cell            `json:"cells"`
		Stats campaign.RunStats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil || !done.Done {
		t.Fatalf("last line is not a done record: %q (%v)", lines[len(lines)-1], err)
	}
	if len(done.Cells) != 1 || done.Cells[0] != *cellLine.Cell {
		t.Errorf("done table %+v disagrees with streamed cell %+v", done.Cells, cellLine.Cell)
	}
	if done.Stats.Simulated == 0 {
		t.Error("cold search reported zero simulations")
	}

	// A bad grid fails before streaming with a JSON error.
	req = httptest.NewRequest("POST", "/v1/adversarial", strings.NewReader(`{"fault":"occlude:frac=0.5"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("template without $mag: status %d, want 400 (body %s)", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest("POST", "/v1/adversarial", strings.NewReader(`{"nope":1}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", rec.Code)
	}
}
