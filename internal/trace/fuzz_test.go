package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"reflect"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/knobs"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// FuzzReadCSV: the trace loader must never panic on malformed input —
// truncated rows, garbage numerics, header-only files, binary noise.
// Seeds beyond f.Add live in testdata/fuzz.
func FuzzReadCSV(f *testing.F) {
	var good bytes.Buffer
	rec := &Recorder{Points: syntheticPoints()[:3]}
	if err := rec.WriteCSV(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(strings.Join(csvHeader, ",") + "\n"))
	f.Add([]byte("time_s,s_m\n1,2\n"))
	f.Add([]byte(""))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(strings.Join(csvHeader, ",") + "\nx,y,z,a,b,c,d,e,f,g,h,i,j,k,l\n"))
	// A 13-column trace without the fault annotations, which no
	// SimVersion still in use wrote; ReadCSV rejects it.
	f.Add([]byte("time_s,s_m,sector,yl_true,yl_meas,det_ok,raw_det_ok,steer,isp,roi,speed_kmph,h_ms,tau_ms\n0.025,0.2,1,0.1,0.1,true,true,0.01,S0,1,50,25,24.60\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadCSV(bytes.NewReader(data))
		if err != nil && pts != nil {
			t.Fatal("points returned alongside an error")
		}
	})
}

// FuzzReadCSVMatchesOracle: on input without '"' and '\r', ReadCSV's
// split-on-commas path must agree with the encoding/csv loader, accepting
// and rejecting the same files and returning the same points (nil for
// header-only); on any other input ReadCSV must fail.
func FuzzReadCSVMatchesOracle(f *testing.F) {
	var good bytes.Buffer
	rec := &Recorder{Points: syntheticPoints()[:3]}
	rec.Points[1].Fault = "noise+drop"
	if err := rec.WriteCSV(&good); err != nil {
		f.Fatal(err)
	}
	header := strings.Join(csvHeader, ",") + "\n"
	row := "0.025,0.2,1,0.1,0.1,true,true,0.01,S0,1,50,25,24.60,,false\n"
	f.Add(good.Bytes())
	f.Add([]byte(header + strings.Replace(row, "S0", `"S0"`, 1)))     // a quoted field
	f.Add([]byte(strings.ReplaceAll(header+row+row, "\n", "\r\n")))   // CRLF line endings
	f.Add([]byte("\n" + header + "\n\n" + row + "\n" + row + "\n\n")) // blank lines
	f.Add([]byte(header + row + strings.TrimSuffix(row, "\n")))       // last row without a newline
	f.Add([]byte(header + row + "0.05,0.4,1,0.1\n"))                  // a ragged row
	f.Add([]byte(header))                                             // header-only
	f.Add([]byte("time_s,s_m,sector,yl_true,yl_meas,det_ok,raw_det_ok,steer,isp,roi,speed_kmph,h_ms,tau_ms\n" +
		"0.025,0.2,1,0.1,0.1,true,true,0.01,S0,1,50,25,24.60\n")) // 13 columns
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data))
		if bytes.ContainsAny(data, "\"\r") {
			if err == nil || got != nil {
				t.Fatalf("ReadCSV accepted input holding a quote or CR: %d points, err %v", len(got), err)
			}
			return
		}
		want, werr := readCSVRecords(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("ReadCSV err = %v, encoding/csv err = %v", err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadCSV points differ from encoding/csv:\n got %+v\nwant %+v", got, want)
		}
	})
}

// readCSVRecords is the oracle ReadCSV's split path must match:
// encoding/csv splits the records, so quoting and CRLF line ends follow
// RFC 4180.
func readCSVRecords(r io.Reader) ([]sim.TracePoint, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errEmpty
	}
	if err := checkHeader(len(rows[0])); err != nil {
		return nil, err
	}
	var out []sim.TracePoint
	for i, row := range rows[1:] {
		p, err := parseRow(row, i+2)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// BenchmarkReadCSV loads a recorded 96×48 closed-loop trace.
func BenchmarkReadCSV(b *testing.B) {
	rec := &Recorder{}
	if _, err := sim.Run(sim.Config{
		Track:  world.SituationTrack(world.PaperSituations[0]),
		Camera: camera.Scaled(96, 48),
		Case:   knobs.Case4,
		Seed:   1,
		Trace:  rec.Add,
	}); err != nil {
		b.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(csv.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(csv.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
