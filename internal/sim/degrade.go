package sim

import "fmt"

// Degradation tunes the graceful-degradation policies that keep the loop
// controllable under sensing faults. The policies activate whenever a
// fault schedule is configured (Config.Faults != nil) or when Enabled is
// set; otherwise the loop behaves bit-identically to a fault-free build.
type Degradation struct {
	// Enabled forces the policies on even without a fault schedule, so
	// naturally occurring detection dropouts also trigger the fallback.
	Enabled bool
	// DisableHoldLast reverts dropped camera frames to the coasting
	// controller (predict-and-command) instead of holding the last
	// actuation command.
	DisableHoldLast bool
	// FallbackAfter is the number of consecutive cycles without a
	// trustworthy perception measurement (detector miss, innovation-gate
	// reject, or a gate-saturated forced acceptance)
	// before the runtime falls back to the robust knob tuning
	// (knobs.FallbackSetting). 0 means the default (3, the gate's
	// saturation point); negative disables the fallback.
	FallbackAfter int
	// RecoverAfter is the number of consecutive usable measurements
	// required to leave the fallback. 0 means the default (5). Unlike
	// FallbackAfter there is no disabled mode — recovery always has a
	// threshold — so negative values are a configuration error
	// (sim.Run fails fast; see Validate).
	RecoverAfter int
}

// Validate rejects incoherent degradation knobs. FallbackAfter may be
// negative (that disables the fallback), but RecoverAfter has no
// disabled mode: a negative value used to be silently coerced to the
// default, contradicting the field docs, and is now an explicit error.
func (d Degradation) Validate() error {
	if d.RecoverAfter < 0 {
		return fmt.Errorf("sim: Degradation.RecoverAfter = %d is negative; 0 means the default (%d) and recovery cannot be disabled — use FallbackAfter < 0 to disable the fallback instead",
			d.RecoverAfter, defaultRecoverAfter)
	}
	return nil
}

// Default streak lengths for the fallback policy. Entry matches the
// innovation gate's saturation point: three consecutive implausible
// samples are where the gate gives up and starts force-accepting, so
// that streak is the natural "perception is untrustworthy" signal.
// Recovery demands a longer run of clean samples (about an eighth of a
// second at the 25 ms period) before trusting the characterized tuning
// again.
const (
	defaultFallbackAfter = 3
	defaultRecoverAfter  = 5
)

// DegradationStats summarizes the graceful-degradation activity of one
// run (all zero when the policies never engaged).
type DegradationStats struct {
	// HeldFrames counts dropped camera frames bridged by re-issuing the
	// last actuation command.
	HeldFrames int
	// FallbackEntries counts transitions into the robust fallback
	// tuning; FallbackCycles the total cycles spent inside it.
	FallbackEntries int
	FallbackCycles  int
	// DeadlineMisses counts actuation commands that never reached the
	// plant before the next capture (tau stretched past h); the watchdog
	// records them and lets the stale command be superseded.
	DeadlineMisses int
}

// degrade is the per-run degradation state machine.
type degrade struct {
	active        bool
	holdLast      bool
	fallbackAfter int
	recoverAfter  int

	badStreak  int
	goodStreak int
	inFallback bool
	stats      DegradationStats
}

func newDegrade(cfg *Config) degrade {
	d := degrade{
		active:        cfg.Faults != nil || cfg.Degrade.Enabled,
		holdLast:      !cfg.Degrade.DisableHoldLast,
		fallbackAfter: cfg.Degrade.FallbackAfter,
		recoverAfter:  cfg.Degrade.RecoverAfter,
	}
	if d.fallbackAfter == 0 {
		d.fallbackAfter = defaultFallbackAfter
	}
	// Negative RecoverAfter was rejected by Validate in sim.Run; only
	// the zero value reaches here and takes the default.
	if d.recoverAfter == 0 {
		d.recoverAfter = defaultRecoverAfter
	}
	// Characterization mode pins the knobs; the fallback must not fight
	// the fixed setting.
	if cfg.FixedSetting != nil {
		d.fallbackAfter = -1
	}
	return d
}

// observe feeds one cycle's measurement verdict into the fallback state
// machine and reports whether it entered the fallback. The mode applies
// from the NEXT cycle's knob selection — one cycle of reconfiguration
// delay, like the ISP knob.
func (d *degrade) observe(measOK bool) (entered bool) {
	if !d.active || d.fallbackAfter < 0 {
		return false
	}
	if measOK {
		d.goodStreak++
		d.badStreak = 0
		if d.inFallback && d.goodStreak >= d.recoverAfter {
			d.inFallback = false
		}
	} else {
		d.badStreak++
		d.goodStreak = 0
		if !d.inFallback && d.badStreak >= d.fallbackAfter {
			d.inFallback, entered = true, true
			d.stats.FallbackEntries++
		}
	}
	if d.inFallback {
		d.stats.FallbackCycles++
	}
	return entered
}
