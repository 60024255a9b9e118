// Package hsas_test holds the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Benchmarks measure this implementation's throughput on the
// experiment workloads; the experiment *values* (MAE, accuracy, crash
// points) are regenerated by cmd/figures, cmd/characterize,
// cmd/train-classifiers and cmd/isp-profile, and recorded in
// EXPERIMENTS.md.
package hsas_test

import (
	"fmt"
	"testing"

	"hsas"
	"hsas/internal/approx"
	"hsas/internal/baselines"
	"hsas/internal/camera"
	"hsas/internal/classifier"
	"hsas/internal/cnn"
	"hsas/internal/core"
	"hsas/internal/isp"
	"hsas/internal/knobs"
	"hsas/internal/obs"
	"hsas/internal/perception"
	"hsas/internal/platform"
	"hsas/internal/raster"
	"hsas/internal/sim"
	"hsas/internal/world"
)

// benchCam is the reduced resolution used to keep closed-loop benchmarks
// tractable; cmd/figures accepts -width/-height up to the paper's
// 512×256.
func benchCam() camera.Camera { return camera.Scaled(192, 96) }

func daySit() world.Situation {
	return world.Situation{Layout: world.Straight, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
}

// BenchmarkFig1AccuracyFPS sweeps the Fig. 1 comparator set over a small
// situation-balanced dataset (E1).
func BenchmarkFig1AccuracyFPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		evals := baselines.EvaluateFig1(benchCam(), 1, int64(i))
		if len(evals) == 0 {
			b.Fatal("no evaluations")
		}
	}
}

// BenchmarkTable2ISPKnobs measures every ISP configuration of Table II on
// a paper-sized 512×256 RAW frame (E2).
func BenchmarkTable2ISPKnobs(b *testing.B) {
	track := world.SituationTrack(daySit())
	rend := camera.NewRenderer(track, camera.Default())
	raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), 1)
	for _, cfg := range isp.Knobs {
		cfg := cfg
		b.Run(cfg.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Process(raw)
			}
		})
	}
}

// BenchmarkTable3Characterization runs the design-time sweep for one
// situation over three ISP candidates (E3); cmd/characterize covers the
// full 21-situation table.
func BenchmarkTable3Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.Characterize(core.CharacterizeConfig{
			Situations:    []world.Situation{daySit()},
			ISPCandidates: []string{"S0", "S3", "S8"},
			Camera:        benchCam(),
			Seed:          int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Classifiers trains and evaluates one situation
// classifier per iteration at reduced scale (E4); cmd/train-classifiers
// reproduces the full Table IV.
func BenchmarkTable4Classifiers(b *testing.B) {
	for _, kind := range []classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dcfg := classifier.DatasetConfig{N: 120, InW: 32, InH: 16, Seed: int64(i + 1), ISPConfig: "S0"}
				tcfg := cnn.DefaultTrainConfig()
				tcfg.Epochs = 6
				if _, _, err := classifier.Train(kind, dcfg, tcfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Inference measures one classifier forward pass, the
// quantity the paper profiles at 5.5 ms on the Xavier (E4).
func BenchmarkTable4Inference(b *testing.B) {
	net, err := cnn.ResNetLite(3, 24, 48, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := cnn.NewTensor(3, 24, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

// BenchmarkFig6StaticSituations evaluates the four Table V cases on one
// static situation per iteration (E5/E6); cmd/figures -fig 6 covers all
// 21 situations.
func BenchmarkFig6StaticSituations(b *testing.B) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	track := world.SituationTrack(sit)
	for _, c := range []knobs.Case{knobs.Case1, knobs.Case2, knobs.Case3, knobs.Case4} {
		c := c
		b.Run(fmt.Sprintf("case%d", int(c)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{Track: track, Camera: benchCam(), Case: c, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8DynamicTrack drives the nine-sector Fig. 7 track with the
// robust baseline (case 3), the full configuration (case 4) and the
// Sec. IV-E variable invocation scheme (E7/E8).
func BenchmarkFig8DynamicTrack(b *testing.B) {
	track := world.NineSectorTrack()
	for _, c := range []knobs.Case{knobs.Case3, knobs.Case4, knobs.CaseVariable} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(sim.Config{Track: track, Camera: benchCam(), Case: c, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRunInstrumented quantifies the telemetry overhead on the
// Case 3 nine-sector run of BenchmarkFig8DynamicTrack: "disabled" is the
// baseline (Config.Obs == nil, the instrumentation reduced to a handful
// of nil checks), "enabled" attaches a full Observer (metrics + spans).
// The observability acceptance bound is disabled-vs-baseline overhead
// under 2%; compare against BenchmarkFig8DynamicTrack/case-3.
func BenchmarkSimRunInstrumented(b *testing.B) {
	track := world.NineSectorTrack()
	run := func(b *testing.B, o *obs.Observer) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(sim.Config{Track: track, Camera: benchCam(), Case: knobs.Case3, Seed: 1, Obs: o}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		run(b, &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()})
	})
}

// BenchmarkPipelineFrame measures one full sensing cycle — render, ISP
// S0, perception — at the paper's 512×256 resolution: the per-frame work
// the Xavier pipelines at up to 40 FPS (Fig. 1 / Fig. 4).
func BenchmarkPipelineFrame(b *testing.B) {
	track := world.SituationTrack(daySit())
	cam := camera.Default()
	rend := camera.NewRenderer(track, cam)
	det := perception.NewDetector(perception.NewGeometry(cam))
	roi, _ := perception.ROIByID(1)
	cfg, _ := isp.ByID("S0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), int64(i))
		img := cfg.Process(raw)
		det.Detect(img, roi, perception.LookAhead)
	}
}

// BenchmarkFrameCycle contrasts the allocating per-frame path ("alloc":
// fresh renderer/detector and fresh output buffers every frame, the seed
// behaviour) against the steady-state pipeline ("pooled": one renderer,
// one detector, recycled RAW/RGB buffers rendered and processed in
// place with the default worker count). allocs/op of the pooled variant
// is the number CI guards; it should stay orders of magnitude below the
// alloc variant.
func BenchmarkFrameCycle(b *testing.B) {
	track := world.SituationTrack(daySit())
	cam := camera.Default()
	roi, _ := perception.ROIByID(1)
	cfg, _ := isp.ByID("S0")
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rend := camera.NewRenderer(track, cam)
			det := perception.NewDetector(perception.NewGeometry(cam))
			raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), int64(i))
			img := cfg.Process(raw)
			det.Detect(img, roi, perception.LookAhead)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		rend := camera.NewRenderer(track, cam)
		det := perception.NewDetector(perception.NewGeometry(cam))
		raw := raster.GetBayer(cam.Width, cam.Height)
		fa := raster.GetRGB(cam.Width, cam.Height)
		fb := raster.GetRGB(cam.Width, cam.Height)
		defer func() {
			raster.PutBayer(raw)
			raster.PutRGB(fa)
			raster.PutRGB(fb)
		}()
		cycle := func(i int) {
			rend.RenderRAWInto(raw, camera.PoseOnTrack(track, 20, 0, 0), int64(i))
			img := cfg.ProcessInto(raw, fa, fb, 0)
			det.Detect(img, roi, perception.LookAhead)
		}
		cycle(0) // warm the scratch buffers so -benchtime=1x sees steady state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(i)
		}
	})
}

// BenchmarkISPStages measures each per-pixel ISP kernel at the paper's
// 512×256, serial vs row-parallel, on pre-sized buffers. The in-place
// stages (colormap/gamut/tone) re-transform the same image each
// iteration; their cost, not their output, is what is measured here —
// byte identity across worker counts is pinned by the golden tests in
// internal/isp.
func BenchmarkISPStages(b *testing.B) {
	track := world.SituationTrack(daySit())
	cam := camera.Default()
	rend := camera.NewRenderer(track, cam)
	raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), 1)
	demo := raster.NewRGB(cam.Width, cam.Height)
	den := raster.NewRGB(cam.Width, cam.Height)
	isp.DemosaicBilinearInto(raw, demo, 1)
	stages := []struct {
		name string
		fn   func(workers int)
	}{
		{"demosaic", func(w int) { isp.DemosaicBilinearInto(raw, demo, w) }},
		{"denoise", func(w int) { isp.DenoiseBilateralInto(demo, den, w) }},
		{"colormap", func(w int) { isp.ApplyColorMap(den, w) }},
		{"gamutmap", func(w int) { isp.ApplyGamutMap(den, w) }},
		{"tonemap", func(w int) { isp.ApplyToneMap(den, w) }},
	}
	for _, st := range stages {
		st := st
		for _, par := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			par := par
			b.Run(st.name+"/"+par.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.fn(par.workers)
				}
			})
		}
	}
}

// BenchmarkCharacterizeSweep runs the one-situation design-time sweep of
// BenchmarkTable3Characterization with the kernel-level parallelism
// forced off ("serialKernels", the seed behaviour) and at its default
// composition with the candidate pool ("parallelKernels").
func BenchmarkCharacterizeSweep(b *testing.B) {
	for _, v := range []struct {
		name string
		kw   int
	}{{"serialKernels", -1}, {"parallelKernels", 0}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.Characterize(core.CharacterizeConfig{
					Situations:    []world.Situation{daySit()},
					ISPCandidates: []string{"S0", "S3", "S8"},
					Camera:        benchCam(),
					Seed:          int64(i),
					KernelWorkers: v.kw,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControlDesign measures one delay-augmented LQR design — the
// per-(v, h, tau) cost of building the controller bank.
func BenchmarkControlDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := hsas.VerifySwitchingStability(knobs.Table{
			daySit(): {ISP: "S0", ROI: 1, SpeedKmph: 50},
		}, hsas.BMWX5()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFeedforward quantifies the measured-curvature steering
// feedforward ablation (disabled by default for paper fidelity; see
// DESIGN.md).
func BenchmarkAblationFeedforward(b *testing.B) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	track := world.SituationTrack(sit)
	for _, ff := range []bool{false, true} {
		ff := ff
		name := "pureLQR"
		if ff {
			name = "withFeedforward"
		}
		b.Run(name, func(b *testing.B) {
			var lastMAE float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Track: track, Camera: benchCam(), Case: knobs.Case4,
					Seed: 1, UseFeedforward: ff,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastMAE = res.MAE
			}
			b.ReportMetric(lastMAE, "MAE")
		})
	}
}

// BenchmarkAblationPowerMode runs the same situation-aware configuration
// at the Xavier's three nvpmodel operating points: tighter power budgets
// stretch every runtime, growing (tau, h) and degrading QoC — the
// hardware-awareness axis beyond the paper's fixed 30 W.
func BenchmarkAblationPowerMode(b *testing.B) {
	sit := world.Situation{Layout: world.RightTurn, Lane: world.LaneMarking{Color: world.White, Form: world.Continuous}, Scene: world.Day}
	track := world.SituationTrack(sit)
	for _, mode := range platform.PowerModes {
		mode := mode
		b.Run(mode.Name, func(b *testing.B) {
			var lastMAE float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Track:    track,
					Camera:   benchCam(),
					Case:     knobs.Case4,
					Platform: platform.Xavier().WithPowerMode(mode),
					Seed:     1,
				})
				if err != nil {
					b.Fatal(err)
				}
				lastMAE = res.MAE
				if res.Crashed {
					lastMAE += 10
				}
			}
			b.ReportMetric(lastMAE, "MAE")
		})
	}
}

// BenchmarkApproxQualitySweep scores every ISP configuration's image
// quality against the full S0 pipeline (the latency-vs-quality frontier
// the characterization trades over).
func BenchmarkApproxQualitySweep(b *testing.B) {
	track := world.SituationTrack(daySit())
	rend := camera.NewRenderer(track, camera.Default())
	raw := rend.RenderRAW(camera.PoseOnTrack(track, 20, 0, 0), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.Sweep(raw); err != nil {
			b.Fatal(err)
		}
	}
}
