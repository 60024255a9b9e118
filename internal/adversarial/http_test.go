package adversarial

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hsas/internal/campaign"
)

// passRunner passes every probe without simulating and counts its calls.
// Like the campaign engine, it refuses work once ctx is done.
type passRunner struct{ calls atomic.Int64 }

func (p *passRunner) Run(ctx context.Context, jobs []campaign.JobSpec) ([]*campaign.JobResult, campaign.RunStats, error) {
	p.calls.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, campaign.RunStats{}, err
	}
	out := make([]*campaign.JobResult, len(jobs))
	for i := range out {
		out[i] = &campaign.JobResult{}
	}
	return out, campaign.RunStats{Jobs: len(jobs), Unique: len(jobs), Simulated: len(jobs)}, nil
}

// brokenPipe accepts limit bytes, then fails every write, as a
// connection does once its client has gone. It records how many writes
// were attempted after the first failure and how many runner calls had
// been made by then.
type brokenPipe struct {
	header        http.Header
	limit         int
	runner        *passRunner
	callsAtFail   int64
	writesRefused int
}

func (b *brokenPipe) Header() http.Header { return b.header }
func (b *brokenPipe) WriteHeader(int)     {}

func (b *brokenPipe) Write(p []byte) (int, error) {
	if len(p) <= b.limit {
		b.limit -= len(p)
		return len(p), nil
	}
	if b.writesRefused == 0 {
		b.callsAtFail = b.runner.calls.Load()
	}
	b.writesRefused++
	return 0, errors.New("broken pipe")
}

// TestHandlerStopsOnWriteError cuts the response stream after the first
// cell line of a 21-cell search: the handler must return, attempt no
// write after the failed one and run no further cells.
func TestHandlerStopsOnWriteError(t *testing.T) {
	runner := &passRunner{}
	h := NewHandler(ServerConfig{NewRunner: func() campaign.Runner { return runner }})
	// One cell line is a few hundred bytes; the second does not fit.
	w := &brokenPipe{header: http.Header{}, limit: 600, runner: runner}
	grid := `{"settings":[{"ISP":"S0","ROI":2,"SpeedKmph":30}],"fault":"noise:mag=$mag","tol":0.25}`
	req, err := http.NewRequest("POST", "/v1/adversarial", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, req)
	}()
	select {
	case <-served:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after the stream broke")
	}

	if w.writesRefused != 1 {
		t.Errorf("handler attempted %d writes after the stream broke, want 1 (the failing one)", w.writesRefused)
	}
	// Serial search: the cell in flight when the write failed is done,
	// so at most the next cell's first probe can start before the
	// cancellation reaches it.
	total := runner.calls.Load()
	if w.callsAtFail == 0 || total > w.callsAtFail+1 {
		t.Errorf("runner called %d times, %d of them after the stream broke; want at most 1 after", total, total-w.callsAtFail)
	}
}
