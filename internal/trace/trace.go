// Package trace records closed-loop runs, the role the IMACS framework
// [11] plays in the paper's HiL setup ("a framework for performance
// evaluation of image approximation in a closed-loop system"): it
// persists per-cycle samples to CSV and loads them back. The paper's
// quality of control, the MAE of the lateral deviation, is computed by
// sim.Result.
package trace

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hsas/internal/sim"
)

// Recorder accumulates trace points from a sim run (wire its Add method
// to sim.Config.Trace).
type Recorder struct {
	Points []sim.TracePoint
}

// Add appends one sample; pass it as the sim.Config.Trace callback.
func (r *Recorder) Add(p sim.TracePoint) { r.Points = append(r.Points, p) }

// csvHeader is the trace schema. det_ok is the GATED outcome the
// controller consumed (false on every coasted cycle, matching
// Result.DetectFails); raw_det_ok is the detector's pre-gating verdict,
// so det_ok=false with raw_det_ok=true marks an innovation-gate reject.
// fault names the injected fault classes of the cycle ('+'-joined, empty
// when clean) and degraded flags cycles governed by the robust fallback
// tuning; both are "" / false on every cycle of a fault-free run.
var csvHeader = []string{
	"time_s", "s_m", "sector", "yl_true", "yl_meas", "det_ok", "raw_det_ok",
	"steer", "isp", "roi", "speed_kmph", "h_ms", "tau_ms", "fault", "degraded",
}

// WriteCSV serializes the recorded points.
func (r *Recorder) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, p := range r.Points {
		rec := []string{
			fmt.Sprintf("%.4f", p.TimeS),
			fmt.Sprintf("%.3f", p.S),
			strconv.Itoa(p.Sector),
			fmt.Sprintf("%.5f", p.YLTrue),
			fmt.Sprintf("%.5f", p.YLMeas),
			strconv.FormatBool(p.DetOK),
			strconv.FormatBool(p.RawDetOK),
			fmt.Sprintf("%.5f", p.Steer),
			p.Setting.ISP,
			strconv.Itoa(p.Setting.ROI),
			fmt.Sprintf("%g", p.Setting.SpeedKmph),
			fmt.Sprintf("%g", p.HMs),
			fmt.Sprintf("%.2f", p.TauMs),
			p.Fault,
			strconv.FormatBool(p.Degraded),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads points written by WriteCSV. A header-only trace loads
// as nil points.
//
// WriteCSV never quotes a field or writes a '\r', so input holding
// either is rejected. The rest is split on commas exactly as
// encoding/csv would split it: one string conversion, fields as
// substrings, points preallocated from the newline count.
func ReadCSV(r io.Reader) ([]sim.TracePoint, error) {
	var buf bytes.Buffer
	if n, ok := r.(interface{ Len() int }); ok {
		buf.Grow(n.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	b := buf.Bytes()
	for _, c := range []byte{'"', '\r'} {
		if i := bytes.IndexByte(b, c); i >= 0 {
			return nil, fmt.Errorf("trace: byte %d is %q, which WriteCSV never writes", i, c)
		}
	}
	return readPlainCSV(string(b))
}

// readPlainCSV loads a trace holding no '"' and no '\r', splitting it
// exactly as encoding/csv would: blank lines are skipped, the last
// line may lack its newline, and every record must have the header's
// field count.
func readPlainCSV(s string) ([]sim.TracePoint, error) {
	var (
		out    []sim.TracePoint
		fields []string // one record, fields per record fixed by the header
		rec    int      // records read, header included
	)
	for line := 0; len(s) > 0; {
		var l string
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			l, s = s[:i], s[i+1:]
		} else {
			l, s = s, ""
		}
		line++
		if l == "" {
			continue
		}
		rec++
		if rec == 1 {
			nf := strings.Count(l, ",") + 1
			if err := checkHeader(nf); err != nil {
				return nil, err
			}
			fields = make([]string, nf)
			continue
		}
		nf := len(fields)
		if strings.Count(l, ",")+1 != nf {
			return nil, fmt.Errorf("trace: record on line %d: wrong number of fields", line)
		}
		for j := 0; j < nf-1; j++ {
			i := strings.IndexByte(l, ',')
			fields[j], l = l[:i], l[i+1:]
		}
		fields[nf-1] = l
		p, err := parseRow(fields, rec)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = make([]sim.TracePoint, 0, strings.Count(s, "\n")+1)
		}
		out = append(out, p)
	}
	if rec == 0 {
		return nil, errEmpty
	}
	return out, nil
}

var errEmpty = errors.New("trace: empty CSV")

// checkHeader accepts the schema's field count.
func checkHeader(n int) error {
	if n != len(csvHeader) {
		return fmt.Errorf("trace: header has %d fields, want %d", n, len(csvHeader))
	}
	return nil
}

// parseRow decodes one data record; rec is its 1-based record number
// (the header is record 1) for error messages.
func parseRow(row []string, rec int) (sim.TracePoint, error) {
	var p sim.TracePoint
	var errs []error
	f := func(j int) float64 {
		v, err := strconv.ParseFloat(row[j], 64)
		if err != nil {
			errs = append(errs, err)
		}
		return v
	}
	n := func(j int) int {
		v, err := strconv.Atoi(row[j])
		if err != nil {
			errs = append(errs, err)
		}
		return v
	}
	p.TimeS = f(0)
	p.S = f(1)
	p.Sector = n(2)
	p.YLTrue = f(3)
	p.YLMeas = f(4)
	detOK, berr := strconv.ParseBool(row[5])
	if berr != nil {
		errs = append(errs, berr)
	}
	p.DetOK = detOK
	rawOK, berr := strconv.ParseBool(row[6])
	if berr != nil {
		errs = append(errs, berr)
	}
	p.RawDetOK = rawOK
	p.Steer = f(7)
	p.Setting.ISP = row[8]
	p.Setting.ROI = n(9)
	p.Setting.SpeedKmph = f(10)
	p.HMs = f(11)
	p.TauMs = f(12)
	p.Fault = row[13]
	degraded, berr := strconv.ParseBool(row[14])
	if berr != nil {
		errs = append(errs, berr)
	}
	p.Degraded = degraded
	if len(errs) > 0 {
		return sim.TracePoint{}, fmt.Errorf("trace: row %d: %v", rec, errs[0])
	}
	return p, nil
}
