package main

import (
	"io"
	"strings"
	"testing"

	"hsas/internal/knobs"
	"hsas/internal/world"
)

func TestParseCLIRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"unknown flag", []string{"-frobnicate"}, "frobnicate"},
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"zero width", []string{"-width", "0"}, "camera geometry"},
		{"negative height", []string{"-height", "-3"}, "camera geometry"},
		{"zero samples", []string{"-samples", "0"}, "-samples"},
		{"situation zero", []string{"-situations", "0"}, "bad situation index"},
		{"situation 22", []string{"-situations", "22"}, "bad situation index"},
		{"situation junk", []string{"-situations", "1,x"}, "bad situation index"},
		{"bad log level", []string{"-log-level", "loud"}, "bad -log-level"},
		// The -isps regression: a typo'd candidate must fail at the flag
		// with the valid IDs spelled out, not minutes into the sweep.
		{"unknown isp", []string{"-isps", "S9"}, `bad -isps candidate "S9"`},
		{"isp typo", []string{"-isps", "S0,sx"}, "S0, S1, S2, S3, S4, S5, S6, S7, S8"},
		{"adversarial with sensitivity", []string{"-adversarial", "-sensitivity"}, "mutually exclusive"},
		{"bad adv format", []string{"-adversarial", "-adv-format", "xml"}, "bad -adv-format"},
		{"bad adv cases", []string{"-adversarial", "-adv-cases", "1,x"}, "bad -adv-cases"},
		// Degenerate bisection ranges: an inverted or empty magnitude
		// window and a negative tolerance must fail at the flag, not hang
		// or return nonsense margins after a full sweep.
		{"adv inverted range", []string{"-adversarial", "-adv-lo", "0.9", "-adv-hi", "0.1"}, "bad magnitude range"},
		{"adv empty range", []string{"-adversarial", "-adv-lo", "0.5", "-adv-hi", "0.5"}, "must be below"},
		{"adv negative tol", []string{"-adversarial", "-adv-tol", "-0.01"}, "bad -adv-tol"},
		{"bad precision", []string{"-precisions", "int4"}, `bad -precisions entry "int4"`},
		{"precision typo", []string{"-precisions", "fp32, float16"}, "want fp32 or int8"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseCLI(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("parseCLI(%v) accepted the flags", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseCLIBuildsExpectedConfig(t *testing.T) {
	c, err := parseCLI(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.char.Camera.Width != 256 || c.char.Camera.Height != 128 || c.char.Seed != 1 ||
		c.sensitivity || c.samples != 24 || c.reg != nil {
		t.Fatalf("defaults = %+v", c)
	}

	c, err = parseCLI([]string{
		"-width", "192", "-height", "96", "-situations", "1,8", "-isps", "S0, S3",
		"-full", "-seed", "7", "-workers", "3", "-cache-dir", "/tmp/x", "-quiet",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.char.Camera.Width != 192 || c.char.Seed != 7 || !c.char.FullROISweep ||
		c.workers != 3 || c.cacheDir != "/tmp/x" || !c.quiet {
		t.Fatalf("parsed config = %+v", c)
	}
	if len(c.char.Situations) != 2 || c.char.Situations[0] != world.PaperSituations[0] ||
		c.char.Situations[1] != world.PaperSituations[7] {
		t.Fatalf("situations = %v", c.char.Situations)
	}
	if len(c.char.ISPCandidates) != 2 || c.char.ISPCandidates[0] != "S0" || c.char.ISPCandidates[1] != "S3" {
		t.Fatalf("isps = %v", c.char.ISPCandidates)
	}
}

// TestParseCLIPrecisions: the -precisions flag feeds the characterization
// sweep in canonical form ("" for fp32 so cache keys predate the knob,
// "int8" for the quantized path), and the default leaves the axis empty
// (fp32-only sweep, byte-identical cache keys).
func TestParseCLIPrecisions(t *testing.T) {
	c, err := parseCLI(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.char.Precisions) != 0 {
		t.Fatalf("default precisions = %v, want none", c.char.Precisions)
	}

	c, err = parseCLI([]string{"-precisions", "fp32, int8"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.char.Precisions) != 2 || c.char.Precisions[0] != knobs.PrecisionFP32 ||
		c.char.Precisions[1] != knobs.PrecisionInt8 {
		t.Fatalf("precisions = %q, want [%q %q]", c.char.Precisions, knobs.PrecisionFP32, knobs.PrecisionInt8)
	}

	// Alternative fp32 spelling canonicalizes to the same value.
	c, err = parseCLI([]string{"-precisions", "float32"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.char.Precisions) != 1 || c.char.Precisions[0] != knobs.PrecisionFP32 {
		t.Fatalf("float32 canonicalized to %q", c.char.Precisions)
	}
}

// TestParseCLISensitivityKeepsMetricsAndWorkers is the regression test
// for the silently-ignored flags: in -sensitivity mode the parsed
// config must still carry the metrics registry (for -metrics-out), the
// worker count, the lake directory and the ISP candidates, and the
// engine it builds must carry the workers, the observer and a lake
// labelled with the mode.
func TestParseCLISensitivityKeepsMetricsAndWorkers(t *testing.T) {
	lakeDir := t.TempDir()
	c, err := parseCLI([]string{
		"-sensitivity", "-samples", "5", "-metrics-out", "m.prom", "-workers", "4", "-isps", "S2",
		"-lake-dir", lakeDir,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.sensitivity || c.samples != 5 {
		t.Fatalf("sensitivity mode = %v samples = %d", c.sensitivity, c.samples)
	}
	if c.metricsOut != "m.prom" || c.reg == nil || c.char.Obs == nil {
		t.Fatalf("-metrics-out did not set up the registry: %+v", c)
	}
	if c.workers != 4 || len(c.char.ISPCandidates) != 1 || c.char.ISPCandidates[0] != "S2" {
		t.Fatalf("-workers/-isps not carried: workers=%d isps=%v", c.workers, c.char.ISPCandidates)
	}
	eng, err := newEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Lake == nil {
		t.Fatal("-lake-dir opened no lake in -sensitivity mode")
	}
	if err := eng.Lake.Close(); err != nil {
		t.Fatal(err)
	}
	if eng.Workers != 4 || eng.Obs != c.char.Obs || eng.Cache == nil || eng.LakeCampaign != "sensitivity" {
		t.Fatalf("engine = workers %d, obs %p (want %p), cache %v, lake label %q",
			eng.Workers, eng.Obs, c.char.Obs, eng.Cache, eng.LakeCampaign)
	}
}

// TestParseCLIAdversarialGrid: the -adv-* flags and the shared
// geometry/seed/situations flags land in the search grid, with
// situations carried as their 1-based paper indices.
func TestParseCLIAdversarialGrid(t *testing.T) {
	c, err := parseCLI([]string{
		"-adversarial", "-situations", "1,8", "-width", "192", "-height", "96",
		"-seed", "7", "-adv-fault", "noise:mag=$mag", "-adv-cases", "1,4",
		"-adv-lo", "0.1", "-adv-hi", "0.9", "-adv-tol", "0.05", "-adv-refine", "2",
		"-adv-format", "csv",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !c.adversarial || c.advFormat != "csv" {
		t.Fatalf("mode = %v format = %q", c.adversarial, c.advFormat)
	}
	g := c.adv
	if len(g.Situations) != 2 || g.Situations[0] != 1 || g.Situations[1] != 8 {
		t.Fatalf("grid situations = %v, want 1-based indices [1 8]", g.Situations)
	}
	if g.Width != 192 || g.Height != 96 || g.Seed != 7 {
		t.Fatalf("grid geometry/seed = %dx%d seed %d", g.Width, g.Height, g.Seed)
	}
	if g.Fault != "noise:mag=$mag" || g.Lo != 0.1 || g.Hi != 0.9 || g.Tol != 0.05 || g.Refine != 2 {
		t.Fatalf("grid search params = %+v", g)
	}
	if len(g.Cases) != 2 || g.Cases[0] != 1 || g.Cases[1] != 4 {
		t.Fatalf("grid cases = %v", g.Cases)
	}

	// Defaults: table format, occlusion template, full magnitude range.
	c, err = parseCLI([]string{"-adversarial"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.advFormat != "table" || c.adv.Fault != "occlude:frac=$mag" ||
		c.adv.Lo != 0 || c.adv.Hi != 1 || c.adv.Tol != 0 || c.adv.Refine != 0 {
		t.Fatalf("adversarial defaults = format %q grid %+v", c.advFormat, c.adv)
	}
}
