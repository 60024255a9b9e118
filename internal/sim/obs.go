package sim

import (
	"time"

	"hsas/internal/fault"
	"hsas/internal/obs"
	"hsas/internal/raster"
)

// Stage names for the stage spans and the hsas_sim_stage_seconds labels.
// The first pipelineStages run once in every processed cycle, each
// stamping its own start and end: "render" is the synthetic camera,
// "isp" the ISP, "classify" covers situation identification plus knob
// selection, "detect" the perception ROI + sliding-window search,
// "control" the gating + LQR step + actuation scheduling. They run in
// that order, except that "classify" runs first when no sensor reads
// the frame (see loop.step). "classify.road/lane/scene" time each
// invoked classifier inside "classify"; "physics" covers the physics
// steps from a processed cycle's capture to the next. Dropped cycles
// record no stage.
var stageNames = [...]string{"render", "isp", "classify", "detect", "control",
	"classify.road", "classify.lane", "classify.scene", "physics"}

const (
	renderStage          = 0
	ispStage             = 1
	classifyStage        = 2
	detectStage          = 3
	controlStage         = 4
	pipelineStages       = 5
	firstClassifierStage = 5 // classify.road; lane and scene follow
	physicsStage         = 8
)

// simMetrics holds the pre-registered instruments for one run; a nil
// *simMetrics disables all instrumentation (the default).
type simMetrics struct {
	o           *obs.Observer
	cycles      *obs.Counter
	detectFails *obs.Counter
	reconfigs   *obs.Counter
	crashes     *obs.Counter
	progressM   *obs.Gauge
	speedKmph   *obs.Gauge
	poolHits    *obs.Gauge
	poolMisses  *obs.Gauge
	stages      [len(stageNames)]*obs.Histogram

	// Fault-injection and graceful-degradation telemetry.
	faults       [fault.NumKinds]*obs.Counter
	holdLast     *obs.Counter
	fallbacks    *obs.Counter
	deadlineMiss *obs.Counter
	degraded     *obs.Gauge

	// The physics span of the last processed cycle, open until the next
	// capture (physStart zero: nothing to record).
	physOn             bool
	physStart, physEnd time.Time
}

func newSimMetrics(o *obs.Observer) *simMetrics {
	reg := o.Registry()
	m := &simMetrics{
		o:           o,
		cycles:      reg.Counter("hsas_sim_cycles_total", "control cycles executed, dropped frames included"),
		detectFails: reg.Counter("hsas_sim_detect_fail_total", "cycles without a usable perception measurement, dropped frames included"),
		reconfigs:   reg.Counter("hsas_sim_reconfig_total", "runtime knob-setting changes applied"),
		crashes:     reg.Counter("hsas_sim_crashes_total", "runs ended by a crash"),
		progressM:   reg.Gauge("hsas_sim_progress_m", "arclength progressed along the track"),
		speedKmph:   reg.Gauge("hsas_sim_speed_kmph", "current knob speed"),
		poolHits:    reg.Gauge("hsas_raster_pool_hits", "process-wide raster buffer pool hits"),
		poolMisses:  reg.Gauge("hsas_raster_pool_misses", "process-wide raster buffer pool misses (fresh allocations)"),
	}
	for i, n := range stageNames {
		m.stages[i] = reg.Histogram("hsas_sim_stage_seconds",
			"wall time per pipeline stage per control cycle", obs.DefBuckets, obs.L("stage", n))
	}
	for _, k := range fault.Kinds() {
		m.faults[k] = reg.Counter("hsas_fault_injected_total",
			"fault events injected by the schedule, by kind", obs.L("kind", k.String()))
	}
	m.holdLast = reg.Counter("hsas_sim_hold_last_total", "dropped frames bridged by re-issuing the last command")
	m.fallbacks = reg.Counter("hsas_sim_fallback_total", "entries into the robust fallback tuning")
	m.deadlineMiss = reg.Counter("hsas_sim_deadline_miss_total", "actuation deadlines missed (watchdog)")
	m.degraded = reg.Gauge("hsas_sim_degraded", "1 while the robust fallback tuning is active")
	return m
}

// stage records one latency sample and one span of stage i.
func (m *simMetrics) stage(i int, start, end time.Time) {
	m.stages[i].Observe(end.Sub(start).Seconds())
	m.o.Tracer().SpanAt(stageNames[i], "sim", 0, start, end, nil)
}

// physicsStep extends the open physics span over one physics step.
func (m *simMetrics) physicsStep(start, end time.Time) {
	if m.physOn && m.physStart.IsZero() {
		m.physStart = start
	}
	m.physEnd = end
}

// flushPhysics records the open physics span, if any.
func (m *simMetrics) flushPhysics() {
	if !m.physStart.IsZero() {
		m.stage(physicsStage, m.physStart, m.physEnd)
		m.physStart = time.Time{}
	}
}

// cycle records one control cycle, dropped or processed: the cycle
// counters and gauges, the fault and degradation telemetry, the stage
// samples and spans of a processed cycle (closing the previous cycle's
// physics span first), and an enclosing "cycle" span carrying the
// knob-setting and fault attributes.
func (m *simMetrics) cycle(l *loop, c *cycle) {
	m.flushPhysics()
	m.physOn = !c.dropped
	reconfigured := c.setting != l.setting
	sector, faults := l.cfg.Track.SectorAt(l.s), c.fault.String()
	m.cycles.Inc()
	m.progressM.Set(l.s)
	m.speedKmph.Set(c.setting.SpeedKmph)
	if !c.measOK {
		m.detectFails.Inc()
	}
	if reconfigured {
		m.reconfigs.Inc()
	}
	ps := raster.Stats()
	m.poolHits.Set(float64(ps.Hits))
	m.poolMisses.Set(float64(ps.Misses))
	for k := range m.faults {
		if c.fault.Has(fault.Kind(k)) {
			m.faults[k].Inc()
		}
	}
	if c.held {
		m.holdLast.Inc()
	}
	if l.deg.inFallback {
		m.degraded.Set(1)
	} else {
		m.degraded.Set(0)
	}
	if !c.dropped {
		for i := 0; i < pipelineStages; i++ {
			m.stage(i, l.stageT[i][0], l.stageT[i][1])
		}
	}
	if tr := m.o.Tracer(); tr != nil {
		st := c.setting
		tr.SpanAt("cycle", "sim", 0, l.cycleT[0], l.cycleT[1], map[string]any{
			"frame": l.frame, "sector": sector, "sim_t_ms": l.t,
			"isp": st.ISP, "roi": st.ROI, "speed_kmph": st.SpeedKmph,
			"h_ms": l.timing.HMs, "tau_ms": l.timing.TauMs, "det_ok": c.pres.OK,
			"reconfigured": reconfigured, "fault": faults,
		})
	}
	m.o.Logger().Debug("cycle",
		"frame", l.frame, "sector", sector, "sim_t_ms", l.t,
		"isp", c.setting.ISP, "roi", c.setting.ROI, "speed_kmph", c.setting.SpeedKmph,
		"det_ok", c.pres.OK, "reconfigured", reconfigured, "fault", faults)
}

// actuate records the delayed command application as an instant event.
func (m *simMetrics) actuate(simTMs, steer float64) {
	m.o.Tracer().Instant("actuate", "sim", 0, map[string]any{"sim_t_ms": simTMs, "steer": steer})
}
