// Package fault is the deterministic fault-injection layer of the
// closed-loop stack: it models the worst-case sensing and platform
// faults the robustness claims must survive — camera frame drops,
// sensor-noise bursts, ISP stage corruption, stuck-at / bit-flipped
// classifier outputs, actuation deadline overruns, correlated
// multi-stage faults (one decision drives a coupled ISP corruption plus
// classifier flip) and adversarial lane-marking occlusion in the
// renderer — as a declarative Schedule of frame-windowed (optionally
// probabilistic) events.
//
// Every random decision is drawn from a counter-based hash of
// (run seed, frame index, event index), never from a shared stream, so
// the same seed and schedule produce a bit-identical fault trace no
// matter how many worker goroutines the surrounding pipeline uses or in
// what order the injection points are queried. This mirrors the
// determinism contract of the mat/cnn kernels.
//
// A nil *Schedule (and the nil *Injector it yields) disables the layer
// entirely: every Injector method is nil-safe and the enabled-path cost
// collapses to a handful of nil checks, the same zero-overhead rule as
// obs.Observer.
package fault

import (
	"fmt"
	"strings"
)

// Kind enumerates the injectable fault classes, one per pipeline stage
// the sensing path can lose.
type Kind uint8

// The fault classes, in pipeline order.
const (
	// FrameDrop blacks out the camera for the cycle: no frame reaches
	// the ISP or perception, exercising the hold-last-command policy.
	FrameDrop Kind = iota
	// NoiseBurst adds a uniform noise burst to the RAW mosaic (sensor
	// glitch, EMI), degrading every downstream stage at once.
	NoiseBurst
	// ISPCorrupt overwrites a horizontal band of the ISP output with
	// garbage (stuck DMA, partial frame), blinding the detector locally.
	ISPCorrupt
	// ClassStuck forces one classifier's output to a fixed class.
	ClassStuck
	// ClassFlip replaces one classifier's output with a different,
	// hash-chosen class (transient bit flip).
	ClassFlip
	// DeadlineOverrun stretches the sensor-to-actuation delay tau past
	// its profiled value, possibly beyond the period h (missed deadline).
	DeadlineOverrun
	// Correlated is a multi-stage fault: a single per-frame firing
	// decision drives BOTH an ISP band corruption (Mag = corrupted row
	// fraction, like ISPCorrupt) and a bit flip of the targeted
	// classifier — the coupled failure mode of a shared upstream cause
	// (bus glitch, memory fault) that independent single-stage events
	// cannot model. The coupling is exact because both injection points
	// query the same pure fires() decision for the event.
	Correlated
	// LaneOcclude occludes a fraction of the painted lane-marking area at
	// render time (patches repaint as bare asphalt): the adversarial
	// perturbation of the perception input itself, not of the pipeline
	// downstream of it. Mag is the occluded fraction of marking area.
	LaneOcclude

	// NumKinds is the number of fault classes.
	NumKinds = int(LaneOcclude) + 1
)

var kindNames = [NumKinds]string{"drop", "noise", "isp", "stuck", "flip", "overrun", "corr", "occlude"}

func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds lists all fault classes in declaration order.
func Kinds() []Kind {
	return []Kind{FrameDrop, NoiseBurst, ISPCorrupt, ClassStuck, ClassFlip, DeadlineOverrun, Correlated, LaneOcclude}
}

// Target selects which situation classifier a ClassStuck / ClassFlip
// event affects.
type Target uint8

// Classifier targets.
const (
	Road Target = iota
	Lane
	Scene
)

var targetNames = [3]string{"road", "lane", "scene"}

func (t Target) String() string {
	if int(t) < len(targetNames) {
		return targetNames[t]
	}
	return fmt.Sprintf("Target(%d)", uint8(t))
}

// Event is one scheduled fault: a kind, a frame window, an optional
// per-frame firing probability and kind-specific parameters.
type Event struct {
	Kind Kind
	// Start is the first affected frame index; End is one past the last.
	// End <= 0 leaves the window open to the end of the run.
	Start, End int
	// Prob is the per-frame firing probability inside the window, drawn
	// deterministically from (seed, frame, event index). 0 means 1.0:
	// the event fires on every frame of its window.
	Prob float64
	// Target selects the classifier for ClassStuck / ClassFlip /
	// Correlated.
	Target Target
	// Class is the stuck-at class for ClassStuck.
	Class int
	// Mag is the kind-specific magnitude: noise amplitude in normalized
	// photosite units (NoiseBurst), corrupted row fraction (ISPCorrupt
	// and Correlated), extra delay in milliseconds (DeadlineOverrun) or
	// occluded lane-marking fraction (LaneOcclude). It is the scalar the
	// adversarial margin search (internal/adversarial) bisects over.
	Mag float64
}

// appliesTo reports whether the frame lies in the event's window.
func (e *Event) appliesTo(frame int) bool {
	return frame >= e.Start && (e.End <= 0 || frame < e.End)
}

// Schedule is a declarative set of fault events; build one literally or
// with ParseSpec. A nil *Schedule means no faults.
type Schedule struct {
	Events []Event
}

// Counts tallies injected fault events by kind.
type Counts [NumKinds]int64

// Total returns the number of injected fault events of any kind.
func (c Counts) Total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

func (c Counts) String() string {
	var b strings.Builder
	for k, v := range c {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Kind(k), v)
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Mask is a per-cycle set of fired fault kinds, used to annotate trace
// points.
type Mask uint8

// Add marks a kind as fired.
func (m *Mask) Add(k Kind) { *m |= 1 << k }

// Has reports whether a kind fired.
func (m Mask) Has(k Kind) bool { return m&(1<<k) != 0 }

// String renders the fired kinds joined by '+' ("" when empty), e.g.
// "noise+stuck".
func (m Mask) String() string {
	if m == 0 {
		return ""
	}
	single := m&(m-1) == 0
	for k := 0; k < NumKinds; k++ {
		if m.Has(Kind(k)) && single {
			return kindNames[k]
		}
	}
	var b strings.Builder
	for k := 0; k < NumKinds; k++ {
		if !m.Has(Kind(k)) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(kindNames[k])
	}
	return b.String()
}

// Injector evaluates a Schedule for one run. It is created per run from
// the run seed; all methods are nil-safe no-ops on a nil receiver, and
// NewInjector returns nil for a nil or empty schedule, so callers can
// thread one pointer through unconditionally.
//
// The injector is queried from the (single-goroutine) control loop; it
// is not safe for concurrent use, but its decisions depend only on
// (seed, frame, event index), never on query order.
type Injector struct {
	events []Event
	seed   int64
	counts Counts
}

// NewInjector binds a schedule to a run seed. A nil or empty schedule
// yields a nil injector (the zero-overhead disabled path).
func NewInjector(s *Schedule, seed int64) *Injector {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	return &Injector{events: s.Events, seed: seed}
}

// hash64 is the splitmix64 finalizer over (seed, frame, salt): a
// stateless counter-based generator, so decisions never depend on how
// many draws other injection points consumed.
func hash64(seed int64, frame int, salt uint64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(frame+1)*0xBF58476D1CE4E5B9 + (salt+1)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rand01 maps a hash to [0, 1).
func rand01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// FrameHash derives the per-frame stream seed used by the image
// corruption kernels; exported so tests can reproduce the exact bytes.
func FrameHash(seed int64, frame int) uint64 { return hash64(seed, frame, 0xFA01) }

// fires reports whether event i fires on the given frame.
func (in *Injector) fires(i int, frame int) bool {
	e := &in.events[i]
	if !e.appliesTo(frame) {
		return false
	}
	if e.Prob <= 0 || e.Prob >= 1 {
		return true // Prob 0 means always; Prob >= 1 likewise
	}
	return rand01(hash64(in.seed, frame, uint64(i))) < e.Prob
}

// Dropped reports whether the camera frame at the given index is lost.
func (in *Injector) Dropped(frame int) bool {
	if in == nil {
		return false
	}
	for i := range in.events {
		if in.events[i].Kind == FrameDrop && in.fires(i, frame) {
			in.counts[FrameDrop]++
			return true
		}
	}
	return false
}

// Noise returns the RAW noise-burst amplitude for the frame (the max
// over all firing NoiseBurst events) and whether any fired.
func (in *Injector) Noise(frame int) (sigma float64, ok bool) {
	if in == nil {
		return 0, false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind == NoiseBurst && in.fires(i, frame) {
			in.counts[NoiseBurst]++
			ok = true
			if e.Mag > sigma {
				sigma = e.Mag
			}
		}
	}
	return sigma, ok
}

// CorruptFrac returns the corrupted-row fraction for the frame's ISP
// output (max over firing ISPCorrupt and Correlated events) and the
// mask of kinds that contributed (zero when none fired). A Correlated
// event contributing here fires its coupled classifier flip on the same
// frame (see Class): both stages query the same pure per-event
// decision.
func (in *Injector) CorruptFrac(frame int) (frac float64, kinds Mask) {
	if in == nil {
		return 0, 0
	}
	for i := range in.events {
		e := &in.events[i]
		if (e.Kind != ISPCorrupt && e.Kind != Correlated) || !in.fires(i, frame) {
			continue
		}
		in.counts[e.Kind]++
		kinds.Add(e.Kind)
		if e.Mag > frac {
			frac = e.Mag
		}
	}
	return frac, kinds
}

// Occlusion returns the occluded lane-marking fraction for the frame
// (max over firing LaneOcclude events) and whether any fired. The
// caller applies it at render time via MarkingOccluded.
func (in *Injector) Occlusion(frame int) (frac float64, ok bool) {
	if in == nil {
		return 0, false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind == LaneOcclude && in.fires(i, frame) {
			in.counts[LaneOcclude]++
			ok = true
			if e.Mag > frac {
				frac = e.Mag
			}
		}
	}
	return frac, ok
}

// Class returns the faulted output of the targeted classifier given its
// true output, which fault kind fired (ClassStuck, ClassFlip or
// Correlated), and whether one fired at all. ClassStuck pins the output
// to the event's class; ClassFlip and the flip stage of Correlated
// substitute a different, hash-chosen class. With numClasses < 2 a flip
// cannot change anything and does not fire.
func (in *Injector) Class(frame int, tgt Target, current, numClasses int) (int, Kind, bool) {
	if in == nil {
		return current, 0, false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Target != tgt || (e.Kind != ClassStuck && e.Kind != ClassFlip && e.Kind != Correlated) {
			continue
		}
		if !in.fires(i, frame) {
			continue
		}
		if e.Kind == ClassStuck {
			in.counts[ClassStuck]++
			return clampInt(e.Class, 0, numClasses-1), ClassStuck, true
		}
		if numClasses < 2 {
			continue
		}
		// A correlated firing is one event: it is tallied by the ISP
		// stage (CorruptFrac), not again here.
		if e.Kind == ClassFlip {
			in.counts[ClassFlip]++
		}
		// Uniform over the numClasses-1 other classes.
		c := int(hash64(in.seed, frame, uint64(i)^0xF11F) % uint64(numClasses-1))
		if c >= current {
			c++
		}
		return c, e.Kind, true
	}
	return current, 0, false
}

// Overrun returns the extra sensor-to-actuation delay (ms) injected on
// this frame (max over firing DeadlineOverrun events) and whether any
// fired.
func (in *Injector) Overrun(frame int) (extraMs float64, ok bool) {
	if in == nil {
		return 0, false
	}
	for i := range in.events {
		e := &in.events[i]
		if e.Kind == DeadlineOverrun && in.fires(i, frame) {
			in.counts[DeadlineOverrun]++
			ok = true
			if e.Mag > extraMs {
				extraMs = e.Mag
			}
		}
	}
	return extraMs, ok
}

// Counts returns the per-kind tally of fault events injected so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return in.counts
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
