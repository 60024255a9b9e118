package isp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hsas/internal/camera"
	"hsas/internal/obs"
	"hsas/internal/raster"
	"hsas/internal/world"
)

// TestProcessObservedIntoRecordsStages runs every configuration on a
// rendered frame at one and two workers with an enabled observer. The
// image must equal ProcessInto's bit for bit, and every executed stage
// must leave exactly one span (cat "isp", labelled with the
// configuration) and one hsas_isp_stage_seconds sample, both in
// canonical stage order; a skipped stage leaves neither.
func TestProcessObservedIntoRecordsStages(t *testing.T) {
	tr := world.NineSectorTrack()
	const w, h = 96, 48
	raw := camera.NewRenderer(tr, camera.Scaled(w, h)).RenderRAW(camera.PoseOnTrack(tr, 40, 0.2, 0.01), 7)
	for _, cfg := range Knobs {
		var stages, counts []string
		for _, s := range []Stage{Demosaic, Denoise, ColorMap, GamutMap, ToneMap} {
			if s == Demosaic || cfg.Has(s) {
				stages = append(stages, s.String())
				counts = append(counts, fmt.Sprintf("hsas_isp_stage_seconds_count{config=%q,stage=%q} 1", cfg.ID, s))
			}
		}
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("%s workers=%d", cfg.ID, workers)
			want := cfg.ProcessInto(raw, dirtyRGB(w, h), dirtyRGB(w, h), workers)
			o := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
			got := cfg.ProcessObservedInto(raw, dirtyRGB(w, h), dirtyRGB(w, h), raster.FullSpans(w, h), workers, o)
			assertSameRGB(t, what, got, want)

			var names []string
			for _, sp := range o.Trace.Spans() {
				if sp.Cat != "isp" || sp.Phase != "X" || sp.Args["config"] != cfg.ID {
					t.Fatalf("%s: span %+v is not an isp stage span of the configuration", what, sp)
				}
				names = append(names, sp.Name)
			}
			if !slices.Equal(names, stages) {
				t.Fatalf("%s: spans %v, want %v", what, names, stages)
			}

			var sb strings.Builder
			if err := o.Metrics.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, l := range strings.Split(sb.String(), "\n") {
				if strings.HasPrefix(l, "hsas_isp_stage_seconds_count") {
					lines = append(lines, l)
				}
			}
			if !slices.Equal(lines, counts) {
				t.Fatalf("%s: stage histogram counts\n%s\nwant\n%s", what, strings.Join(lines, "\n"), strings.Join(counts, "\n"))
			}
		}
	}
}
