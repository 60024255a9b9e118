package campaign

import (
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/sim"
)

// This file lowers campaign jobs onto the columnar result lake
// (internal/lake): every completed job becomes one ResultRow — the
// grid axes that locate it in the design space plus its outcome — and
// a record_trace job's per-cycle trace becomes TraceRows. The lake is
// the analytical projection of the content-addressed cache: the cache
// answers point lookups by key, the lake answers fleet aggregations
// by scan, and rows carry the key so the two cross-reference.

// LakeFailureCounters returns the counters of failed result-lake
// appends and flushes on reg. Lake writes are best-effort (the cache
// stays the source of truth), but silent analytics loss is an operator
// problem, so the campaign pipeline both runners share (Engine and
// internal/fabric's coordinator) counts its failures here for alerts.
func LakeFailureCounters(reg *obs.Registry) (appendFailures, flushFailures *obs.Counter) {
	return reg.Counter("hsas_lake_append_failures_total", "result-lake appends that failed (analytics rows lost; the cache is unaffected)"),
		reg.Counter("hsas_lake_flush_failures_total", "result-lake flushes that failed (buffered analytics rows lost)")
}

// LakeResultRow flattens a normalized spec and its result onto the
// lake's result schema.
func LakeResultRow(campaign string, spec *JobSpec, key string, res *JobResult, cached bool) lake.ResultRow {
	row := lake.ResultRow{
		Campaign:         campaign,
		Key:              key,
		Track:            spec.Track,
		CamW:             int64(spec.Camera.Width),
		CamH:             int64(spec.Camera.Height),
		Case:             int64(spec.Case),
		FixedClassifiers: int64(spec.FixedClassifiers),
		Seed:             spec.Seed,
		Faults:           spec.Faults,
		Feedforward:      spec.UseFeedforward,
		Cached:           cached,
		MAE:              res.MAE,
		Crashed:          res.Crashed,
		CrashSector:      int64(res.CrashSector),
		CrashTimeS:       res.CrashTimeS,
		CompletedS:       res.CompletedS,
		Frames:           int64(res.Frames),
		DetectFails:      int64(res.DetectFails),
		Reconfigurations: int64(res.Reconfigurations),
		FaultEvents:      res.Faults.Total(),
		HeldFrames:       int64(res.Degraded.HeldFrames),
		FallbackEntries:  int64(res.Degraded.FallbackEntries),
		FallbackCycles:   int64(res.Degraded.FallbackCycles),
		DeadlineMisses:   int64(res.Degraded.DeadlineMisses),
		WallMS:           res.WallMS,
	}
	if spec.Situation != nil {
		row.Situation = spec.Situation.String()
	}
	if spec.Fixed != nil {
		row.ISP = spec.Fixed.ISP
		row.ROI = int64(spec.Fixed.ROI)
		row.SpeedKmph = spec.Fixed.SpeedKmph
	}
	return row
}

// lakeTraceRows flattens one job's per-cycle trace points onto the
// lake's trace schema, keyed back to the job by (campaign, key).
func lakeTraceRows(campaign, key string, points []sim.TracePoint) []lake.TraceRow {
	rows := make([]lake.TraceRow, len(points))
	for i, p := range points {
		rows[i] = lake.TraceRow{
			Campaign:  campaign,
			Key:       key,
			TimeS:     p.TimeS,
			S:         p.S,
			Sector:    int64(p.Sector),
			YLTrue:    p.YLTrue,
			YLMeas:    p.YLMeas,
			DetOK:     p.DetOK,
			RawDetOK:  p.RawDetOK,
			Steer:     p.Steer,
			ISP:       p.Setting.ISP,
			ROI:       int64(p.Setting.ROI),
			SpeedKmph: p.Setting.SpeedKmph,
			HMs:       p.HMs,
			TauMs:     p.TauMs,
			Fault:     p.Fault,
			Degraded:  p.Degraded,
		}
	}
	return rows
}
