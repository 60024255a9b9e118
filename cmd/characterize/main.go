// Command characterize regenerates Table III: the design-time hardware-
// and situation-aware characterization (Sec. III-B). For every situation
// it sweeps the ISP knob (and optionally the full ROI × speed space)
// through closed-loop simulation and records the knob tuning with the
// best QoC, printing the result next to the paper's Table III.
//
// Every mode runs its closed-loop jobs on one simulation-campaign engine
// built from -workers, -cache-dir and -lake-dir: with -cache-dir it
// checkpoints every run in a content-addressed cache, so an interrupted
// sweep resumes where it stopped and a repeated sweep costs zero
// simulations; with -lake-dir it appends every run to the result lake,
// labelled with the mode (characterize, sensitivity or adversarial).
//
// With -adversarial the command instead searches per-cell robustness
// margins (see internal/adversarial): for every situation and knob cell
// it bisects over the -adv-fault template's magnitude for the largest
// perturbation the cell survives, printing a margin table (-adv-format
// table, csv or json). Probes are ordinary cached campaign jobs, so a
// repeated search with -cache-dir simulates nothing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hsas/internal/adversarial"
	"hsas/internal/camera"
	"hsas/internal/campaign"
	"hsas/internal/core"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/lake"
	"hsas/internal/obs"
	"hsas/internal/world"
)

// cliConfig is the fully parsed and validated command line (separated
// from main so flag handling is unit-testable).
type cliConfig struct {
	char        core.CharacterizeConfig
	sensitivity bool
	samples     int
	metricsOut  string
	reg         *obs.Registry
	quiet       bool

	// The engine every mode runs on.
	workers  int
	cacheDir string
	lakeDir  string

	adversarial bool
	adv         adversarial.Grid
	advFormat   string
}

// parseCLI parses and validates the characterize command line; errOut
// receives usage and error text.
func parseCLI(args []string, errOut io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(errOut)
	width := fs.Int("width", 256, "camera width for the sweep runs")
	height := fs.Int("height", 128, "camera height for the sweep runs")
	situations := fs.String("situations", "", "comma-separated 1-based situation indices (default all 21)")
	isps := fs.String("isps", "", "comma-separated ISP candidates (default S0..S8)")
	precisions := fs.String("precisions", "", "comma-separated classifier precision knob values to sweep: fp32, int8 (default fp32 only)")
	full := fs.Bool("full", false, "sweep all ROIs and speeds too (much slower)")
	seed := fs.Int64("seed", 1, "simulation seed")
	quiet := fs.Bool("quiet", false, "suppress per-run progress")
	sensitivity := fs.Bool("sensitivity", false, "run the Monte-Carlo knob screening of Sec. III-B instead")
	samples := fs.Int("samples", 24, "Monte-Carlo samples per situation (with -sensitivity)")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = all CPUs); results are identical either way")
	cacheDir := fs.String("cache-dir", "", "content-addressed result cache; interrupted sweeps resume, repeats cost zero simulations")
	lakeDir := fs.String("lake-dir", "", "append every run's result to the columnar lake here (query with lkas-lake)")
	logLevel := fs.String("log-level", "", "enable structured sweep logging at this level: debug, info, warn or error")
	metricsOut := fs.String("metrics-out", "", "after the sweep, dump Prometheus text exposition to this file ('-' for stderr)")
	adv := fs.Bool("adversarial", false, "search per-cell robustness margins instead of characterizing")
	advFault := fs.String("adv-fault", "occlude:frac=$mag", "fault-spec template with a $mag magnitude placeholder (with -adversarial)")
	advCases := fs.String("adv-cases", "", "comma-separated evaluation cases forming the knob axis (default 4; with -adversarial)")
	advLo := fs.Float64("adv-lo", 0, "magnitude search range lower bound (with -adversarial)")
	advHi := fs.Float64("adv-hi", 1, "magnitude search range upper bound (with -adversarial)")
	advTol := fs.Float64("adv-tol", 0, "bisection tolerance (0 = range/64; with -adversarial)")
	advRefine := fs.Int("adv-refine", 0, "refinement samples hunting non-monotone failure islands (with -adversarial)")
	advFormat := fs.String("adv-format", "table", "margin table output format: table, csv or json (with -adversarial)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *width < 1 || *height < 1 {
		return nil, fmt.Errorf("bad camera geometry %dx%d: both sides must be positive", *width, *height)
	}
	if *samples < 1 {
		return nil, fmt.Errorf("-samples %d must be at least 1", *samples)
	}

	c := &cliConfig{
		char: core.CharacterizeConfig{
			Camera:       camera.Scaled(*width, *height),
			Seed:         *seed,
			FullROISweep: *full,
		},
		sensitivity: *sensitivity,
		samples:     *samples,
		metricsOut:  *metricsOut,
		quiet:       *quiet,
		workers:     *workers,
		cacheDir:    *cacheDir,
		lakeDir:     *lakeDir,
	}
	if *logLevel != "" || *metricsOut != "" {
		c.reg = obs.NewRegistry()
		c.char.Obs = &obs.Observer{Metrics: c.reg}
		if *logLevel != "" {
			lvl, err := obs.ParseLevel(*logLevel)
			if err != nil {
				return nil, fmt.Errorf("bad -log-level %q: %v", *logLevel, err)
			}
			c.char.Obs.Log = obs.NewLogger(errOut, lvl)
		}
	}
	if *situations != "" {
		for _, tok := range strings.Split(*situations, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || i < 1 || i > len(world.PaperSituations) {
				return nil, fmt.Errorf("bad situation index %q: want 1..%d", tok, len(world.PaperSituations))
			}
			c.char.Situations = append(c.char.Situations, world.PaperSituations[i-1])
			// The adversarial grid addresses situations by their 1-based
			// paper index, so keep the indices alongside the values.
			c.adv.Situations = append(c.adv.Situations, i)
		}
	}
	if *adv {
		if *sensitivity {
			return nil, fmt.Errorf("-adversarial and -sensitivity are mutually exclusive")
		}
		switch *advFormat {
		case "table", "csv", "json":
		default:
			return nil, fmt.Errorf("bad -adv-format %q: want table, csv or json", *advFormat)
		}
		// Fail fast on a degenerate search space: an inverted or empty
		// magnitude range would bisect nothing (or diverge), and a
		// negative tolerance can never terminate the bisection.
		if *advLo >= *advHi {
			return nil, fmt.Errorf("bad magnitude range: -adv-lo %g must be below -adv-hi %g", *advLo, *advHi)
		}
		if *advTol < 0 {
			return nil, fmt.Errorf("bad -adv-tol %g: tolerance must be non-negative (0 = range/64)", *advTol)
		}
		c.adversarial = true
		c.advFormat = *advFormat
		c.adv.Width = *width
		c.adv.Height = *height
		c.adv.Seed = *seed
		c.adv.Fault = *advFault
		c.adv.Lo = *advLo
		c.adv.Hi = *advHi
		c.adv.Tol = *advTol
		c.adv.Refine = *advRefine
		if *advCases != "" {
			for _, tok := range strings.Split(*advCases, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil {
					return nil, fmt.Errorf("bad -adv-cases entry %q: %v", tok, err)
				}
				c.adv.Cases = append(c.adv.Cases, n)
			}
		}
	}
	if *isps != "" {
		for _, tok := range strings.Split(*isps, ",") {
			id := strings.TrimSpace(tok)
			// Catch typos at the flag, not minutes into the sweep: every
			// candidate must name a known ISP configuration.
			if _, ok := isp.ByID(id); !ok {
				return nil, fmt.Errorf("bad -isps candidate %q: want one of %s", id, ispIDList())
			}
			c.char.ISPCandidates = append(c.char.ISPCandidates, id)
		}
	}
	if *precisions != "" {
		for _, tok := range strings.Split(*precisions, ",") {
			p, err := knobs.ParsePrecision(strings.TrimSpace(tok))
			if err != nil {
				return nil, fmt.Errorf("bad -precisions entry %q: want fp32 or int8", strings.TrimSpace(tok))
			}
			c.char.Precisions = append(c.char.Precisions, p)
		}
	}
	return c, nil
}

// ispIDList renders the valid ISP knob IDs for error messages.
func ispIDList() string {
	ids := make([]string, len(isp.Knobs))
	for i, k := range isp.Knobs {
		ids[i] = k.ID
	}
	return strings.Join(ids, ", ")
}

// mode names the command's mode; it labels the run's lake rows.
func (c *cliConfig) mode() string {
	switch {
	case c.adversarial:
		return "adversarial"
	case c.sensitivity:
		return "sensitivity"
	}
	return "characterize"
}

// newEngine builds the one campaign engine every mode runs its jobs on.
// Without -cache-dir it caches in memory, so a margin search never
// simulates the same probe twice.
func newEngine(c *cliConfig) (*campaign.Engine, error) {
	eng := &campaign.Engine{Workers: c.workers, Obs: c.char.Obs, LakeCampaign: c.mode()}
	if c.cacheDir != "" {
		cache, err := campaign.NewDirCache(c.cacheDir)
		if err != nil {
			return nil, err
		}
		eng.Cache = cache
	} else {
		eng.Cache = campaign.NewMemCache()
	}
	if c.lakeDir != "" {
		lw, err := lake.OpenWriter(c.lakeDir, nil)
		if err != nil {
			return nil, err
		}
		eng.Lake = lw
	}
	// The margin search reports per cell instead (runAdversarial).
	if !c.quiet && !c.adversarial {
		eng.Hooks.JobDone = func(ev campaign.JobEvent) {
			if ev.Err == nil {
				fmt.Fprintln(os.Stderr, progressLine(ev))
			}
		}
	}
	return eng, nil
}

// progressLine describes one completed sweep or screening job: its
// situation, knob setting, eval-sector MAE and crash flag.
func progressLine(ev campaign.JobEvent) string {
	sit := *ev.Spec.Situation
	line := fmt.Sprintf("%v | %v -> sector MAE %.4f crashed=%v",
		sit, *ev.Spec.Fixed, ev.Result.Sector(world.SituationEvalSector(sit)), ev.Result.Crashed)
	if ev.Cached {
		line += " (cached)"
	}
	return line
}

func main() {
	c, err := parseCLI(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng, err := newEngine(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.mode(), err)
		os.Exit(1)
	}

	switch {
	case c.adversarial:
		err = runAdversarial(c, eng)
	case c.sensitivity:
		err = runSensitivity(c, eng)
	default:
		err = runSweep(c, eng)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.mode(), err)
	}
	if eng.Lake != nil {
		if cerr := eng.Lake.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "lake-dir:", cerr)
			err = cerr
		}
	}
	if err == nil && c.metricsOut != "" {
		if err = c.reg.WritePrometheusFile(c.metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
		}
	}
	if err != nil {
		os.Exit(1)
	}
}

// runSweep regenerates Table III and prints it next to the paper's.
func runSweep(c *cliConfig, eng *campaign.Engine) error {
	cfg := c.char
	cfg.Runner = eng
	res, err := core.Characterize(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Regenerated Table III (this substrate):")
	fmt.Print(res.FormatTable())

	fmt.Println("\nPaper's Table III for comparison:")
	fmt.Printf("%-4s %-38s %-5s %-6s %s\n", "Sit", "Situation Details", "ISP", "PR", "Tc [v, h, tau]")
	for i, row := range knobs.PaperTable3 {
		fmt.Printf("%-4d %-38s %-5s ROI %d [%g, %g, %g]\n",
			i+1, row.Situation.String(), row.ISP, row.ROI, row.SpeedKmph, row.HMs, row.TauMs)
	}
	return nil
}

// runSensitivity runs the Monte-Carlo knob screening per situation.
func runSensitivity(c *cliConfig, eng *campaign.Engine) error {
	sits := c.char.Situations
	if sits == nil {
		sits = world.PaperSituations
	}
	for _, sit := range sits {
		res, err := core.AnalyzeSensitivity(core.SensitivityConfig{
			Situation:     sit,
			Samples:       c.samples,
			Camera:        c.char.Camera,
			Seed:          c.char.Seed,
			ISPCandidates: c.char.ISPCandidates,
			Runner:        eng,
		})
		if err != nil {
			return err
		}
		fmt.Print(res.Format())
	}
	return nil
}

// runAdversarial executes the robustness-margin search and prints the
// per-cell table in the selected format.
func runAdversarial(c *cliConfig, eng *campaign.Engine) error {
	var progress func(adversarial.Cell)
	if !c.quiet {
		progress = func(cell adversarial.Cell) {
			fmt.Fprintf(os.Stderr, "sit %d | %s: margin %g (%s, %d probes)\n",
				cell.SituationIndex, cell.Knob, cell.Search.Margin, cell.Search.Status, cell.Search.Probes)
		}
	}
	res, err := adversarial.Run(context.Background(), adversarial.Config{
		Grid:     c.adv,
		Runner:   eng,
		Obs:      c.char.Obs,
		Progress: progress,
	})
	if err != nil {
		return err
	}

	switch c.advFormat {
	case "csv":
		if err := res.FormatCSV(os.Stdout); err != nil {
			return err
		}
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	default:
		fmt.Print(res.FormatTable())
	}
	// The stats line is the warm-start witness: a repeated search over a
	// shared -cache-dir must report simulated=0.
	fmt.Fprintf(os.Stderr, "adversarial: cells=%d probes=%d cache_hits=%d simulated=%d\n",
		len(res.Cells), res.Stats.Jobs, res.Stats.CacheHits, res.Stats.Simulated)
	return nil
}
