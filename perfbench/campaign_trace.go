package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsas/internal/campaign"
	"hsas/internal/lake"
	"hsas/internal/obs"
)

// cacheTimes collects the calls timed at the campaign.Cache seam, by
// phase: 0 cold, 1 warm.
type cacheTimes struct {
	phase              atomic.Int32
	mu                 sync.Mutex
	get, put, putTrace [2]samples
}

// timedCache times every call into the cache it wraps.
type timedCache struct {
	inner campaign.Cache
	t     *cacheTimes
}

func (c *timedCache) record(s *[2]samples, start time.Time) {
	d := time.Since(start)
	c.t.mu.Lock()
	s[c.t.phase.Load()].add(d)
	c.t.mu.Unlock()
}

func (c *timedCache) Get(key string) (*campaign.JobResult, bool, error) {
	defer c.record(&c.t.get, time.Now())
	return c.inner.Get(key)
}

func (c *timedCache) Put(key string, res *campaign.JobResult) error {
	defer c.record(&c.t.put, time.Now())
	return c.inner.Put(key, res)
}

func (c *timedCache) GetTrace(key string) ([]byte, bool, error) { return c.inner.GetTrace(key) }

func (c *timedCache) PutTrace(key string, csv []byte) error {
	defer c.record(&c.t.putTrace, time.Now())
	return c.inner.PutTrace(key, csv)
}

// exchange is one HTTP request the coordinator made, from send until
// its response body was closed.
type exchange struct {
	kind       string // "lease", "get" or "trace"
	start, end time.Time
	status     int
	jobs       int // lease batch size
}

// timedClient is the coordinator's transport (CoordinatorConfig.Client),
// recording every exchange.
type timedClient struct {
	inner http.RoundTripper
	mu    sync.Mutex
	log   []exchange
}

func (t *timedClient) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{kind: "get", start: time.Now()}
	switch {
	case strings.HasSuffix(req.URL.Path, "/trace"):
		ex.kind = "trace"
	case strings.HasSuffix(req.URL.Path, "/v1/lease"):
		ex.kind = "lease"
		if req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				var lr struct{ Jobs []json.RawMessage }
				if json.NewDecoder(body).Decode(&lr) == nil {
					ex.jobs = len(lr.Jobs)
				}
			}
		}
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	ex.status = resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		ex.end = time.Now()
		t.mu.Lock()
		t.log = append(t.log, ex)
		t.mu.Unlock()
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// take returns and clears the exchanges recorded so far.
func (t *timedClient) take() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

// busy returns how much of the timeline the intervals cover together.
func busy(xs []exchange) time.Duration {
	sort.Slice(xs, func(i, j int) bool { return xs[i].start.Before(xs[j].start) })
	var total time.Duration
	var end time.Time
	for _, x := range xs {
		if x.start.After(end) {
			total += x.end.Sub(x.start)
			end = x.end
		} else if x.end.After(end) {
			total += x.end.Sub(end)
			end = x.end
		}
	}
	return total
}

// attributeCampaign fills the per-layer metrics of a traced campaign:
// the calls timed at the Cache (the workers' durable caches), Hooks and
// Client seams, and replays of the layers those seams hide (Normalize
// and Key, the lake writer). Warm-path layers are shares of the warm
// phase's wall time; cold-path layers are shares of the cold phase's
// lane time (wall × shards).
func attributeCampaign(r *run, cr *campaignRun, reg *obs.Registry, scratch string) error {
	m := r.metrics
	nWarm := float64(len(cr.warm.d))
	warmWall := cr.warm.total().Seconds()
	lanes := float64(shards) * cr.coldWall.Seconds()

	uniq, err := uniqueJobs(cr.grid, cr.cold)
	if err != nil {
		return err
	}
	var nk samples
	for rep := 0; rep < 50; rep++ {
		for _, j := range cr.grid {
			start := time.Now()
			n, err := j.Normalize()
			if err == nil {
				_, err = n.Key()
			}
			nk.add(time.Since(start))
			if err != nil {
				return err
			}
		}
	}
	m["campaign.normalize_key_us"] = nk.p50(time.Microsecond)
	m["campaign.normalize_key.share"] = nk.p50(time.Second) * float64(len(cr.grid)) * nWarm / warmWall

	c := cr.cache
	m["campaign.cache_get_us"] = c.get[1].p50(time.Microsecond)
	m["campaign.cache_get.share"] = c.get[1].total().Seconds() / warmWall
	m["campaign.cache_put_us"] = c.put[0].p50(time.Microsecond)
	m["campaign.cache_put.share"] = c.put[0].total().Seconds() / lanes
	m["campaign.cache_put_trace_us"] = c.putTrace[0].p50(time.Microsecond)
	m["campaign.cache_put_trace.share"] = c.putTrace[0].total().Seconds() / lanes

	// Simulation time per job: on the workers (the fabric's cold phase)
	// and on the local engine of the cross-check.
	var workerSim, localSim samples
	for _, u := range uniq {
		workerSim.add(time.Duration(u.res.WallMS * float64(time.Millisecond)))
		localSim.add(time.Duration(cr.local[u.index].WallMS * float64(time.Millisecond)))
	}
	m["fabric.worker_sim_s"] = workerSim.p50(time.Second)
	m["campaign.sim_s"] = localSim.p50(time.Second)
	m["campaign.sim.share"] = workerSim.total().Seconds() / lanes

	// Lake: replay the coordinator's warm path (row projection, append,
	// flush) on a lake of its own.
	lw, err := lake.OpenWriter(filepath.Join(scratch, "replay-lake"), nil)
	if err != nil {
		return err
	}
	var app, flush samples
	var rows []lake.ResultRow
	for rep := 0; rep < 50; rep++ {
		rows = rows[:0]
		for _, u := range uniq {
			start := time.Now()
			row := campaign.LakeResultRow(lakeCampaign, &u.spec, u.key, u.res, true)
			if err := lw.AppendResult(row); err != nil {
				return err
			}
			app.add(time.Since(start))
			rows = append(rows, row)
		}
		start := time.Now()
		if err := lw.Flush(); err != nil {
			return err
		}
		flush.add(time.Since(start))
	}
	m["lake.append_us"] = app.p50(time.Microsecond)
	m["lake.append.share"] = app.p50(time.Second) * float64(len(uniq)) * nWarm / warmWall
	m["lake.flush_ms"] = flush.p50(time.Millisecond)
	m["lake.flush.share"] = flush.p50(time.Second) * nWarm / warmWall
	m["lake.bytes_per_row"] = float64(len(lake.EncodeResultSegment(rows))) / float64(len(rows))

	m["campaign.hit_ratio"] = float64(cr.hookCached) / float64(max(cr.hooks, 1))
	m["campaign.dedup_ratio"] = float64(len(uniq)) / float64(len(cr.grid))

	var lease, get samples
	var jobs int
	for _, x := range cr.coldHTTP {
		if x.kind == "lease" {
			lease.add(x.end.Sub(x.start))
			jobs += x.jobs
		}
	}
	hits := 0
	for _, x := range cr.warmHTTP {
		if x.kind == "get" {
			get.add(x.end.Sub(x.start))
			if x.status == http.StatusOK {
				hits++
			}
		}
	}
	m["fabric.lease_ms"] = lease.p50(time.Millisecond)
	m["fabric.lease_jobs"] = float64(jobs) / float64(max(len(lease.d), 1))
	m["fabric.lease.share"] = lease.total().Seconds() / lanes
	m["fabric.remote_get_us"] = get.p50(time.Microsecond)
	m["fabric.remote_hit_ratio"] = float64(hits) / float64(max(len(get.d), 1))
	m["fabric.remote_get.share"] = busy(cr.warmHTTP).Seconds() / warmWall
	for name, c := range map[string]string{
		"fabric.requeues": "hsas_fabric_requeues_total",
		"fabric.retries":  "hsas_fabric_retries_total",
		"fabric.steals":   "hsas_fabric_steals_total",
	} {
		m[name] = float64(reg.Counter(c, "").Value())
		r.check(m[name] == 0, "%s = %v on a healthy loopback fleet", name, m[name])
	}
	// The warm path: normalize and key, the peer reads (which include the
	// workers' cache reads), then the lake.
	m["campaign.unattributed_share"] = 1 - m["campaign.normalize_key.share"] - m["fabric.remote_get.share"] -
		m["lake.append.share"] - m["lake.flush.share"]
	return nil
}

// uniqueJob is one distinct job of the grid: its normalized spec,
// content address and result.
type uniqueJob struct {
	spec  campaign.JobSpec
	key   string
	index int // first position in the grid
	res   *campaign.JobResult
}

// uniqueJobs returns the grid's distinct jobs in first-submission order.
func uniqueJobs(grid []campaign.JobSpec, results []*campaign.JobResult) ([]uniqueJob, error) {
	seen := map[string]bool{}
	var out []uniqueJob
	for i, j := range grid {
		n, err := j.Normalize()
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		k, err := n.Key()
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, uniqueJob{spec: n, key: k, index: i, res: results[i]})
		}
	}
	return out, nil
}
