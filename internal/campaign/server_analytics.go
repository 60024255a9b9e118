package campaign

import (
	"net/http"
	"strings"
	"time"

	"hsas/internal/httpjson"
	"hsas/internal/lake"
)

// Fleet-analytics endpoints: aggregation queries answered from a single
// sequential scan of the columnar result lake. Both endpoints are
// read-only and safe to hit while campaigns run — they see every sealed
// segment (rows still buffered in the writer appear after the next
// seal/flush).
//
//	GET /v1/analytics/summary
//	    ?campaign=ID            global rollup (+ trace summary) for one
//	                            campaign, or the whole lake when omitted
//	GET /v1/analytics/query
//	    ?group_by=a,b,...       axes from lake.Axes (default: situation)
//	    ?campaign=ID            restrict to one campaign's rows
//	    ?dedup=1                first row per content address only
//	    streams one NDJSON lake.GroupStats line per group, then a final
//	    {"scan": ...} trailer with the scan statistics

// observeScan records one lake scan on the analytics histograms.
func (s *Server) observeScan(elapsed time.Duration, scan lake.ScanStats) {
	sec := elapsed.Seconds()
	s.scanSecH.Observe(sec)
	if sec > 0 {
		s.scanRowsH.Observe(float64(scan.Rows) / sec)
	}
	s.scanMBH.Observe(float64(scan.Bytes) / 1e6)
}

// lakeDir returns the lake directory, or reports 404 when the server
// was started without one.
func (s *Server) lakeDir(w http.ResponseWriter) (string, bool) {
	if s.cfg.Lake == nil {
		httpjson.Error(w, http.StatusNotFound, "no result lake configured (start the server with a lake directory)")
		return "", false
	}
	return s.cfg.Lake.Dir(), true
}

func (s *Server) handleAnalyticsSummary(w http.ResponseWriter, r *http.Request) {
	dir, ok := s.lakeDir(w)
	if !ok {
		return
	}
	campaign := r.URL.Query().Get("campaign")
	start := time.Now()
	sum, scan, err := lake.Summarize(dir, campaign)
	if err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.observeScan(time.Since(start), scan)
	httpjson.Write(w, http.StatusOK, struct {
		lake.Summary
		Scan lake.ScanStats `json:"scan"`
	}{sum, scan})
}

func (s *Server) handleAnalyticsQuery(w http.ResponseWriter, r *http.Request) {
	dir, ok := s.lakeDir(w)
	if !ok {
		return
	}
	p := r.URL.Query()
	q := lake.Query{Campaign: p.Get("campaign")}
	switch v := p.Get("dedup"); v {
	case "", "0", "false":
	case "1", "true":
		q.Dedup = true
	default:
		httpjson.Error(w, http.StatusBadRequest, "dedup must be a boolean, got %q", v)
		return
	}
	if g := p.Get("group_by"); g != "" {
		q.GroupBy = strings.Split(g, ",")
	} else {
		q.GroupBy = []string{"situation"}
	}
	if err := q.Validate(); err != nil {
		httpjson.Error(w, http.StatusBadRequest, "%v", err)
		return
	}

	start := time.Now()
	groups, scan, err := lake.Aggregate(dir, q)
	if err != nil {
		httpjson.Error(w, http.StatusInternalServerError, "lake scan: %v", err)
		return
	}
	s.observeScan(time.Since(start), scan)

	// NDJSON: one GroupStats per line so clients can process groups as
	// they arrive, then a trailer with the scan statistics.
	stream := httpjson.NewStream(w)
	for i := range groups {
		if stream.Send(groups[i]) != nil {
			return
		}
	}
	_ = stream.Send(struct {
		Scan lake.ScanStats `json:"scan"`
	}{scan})
}
