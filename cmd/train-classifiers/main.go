// Command train-classifiers regenerates Table IV: it trains the road,
// lane and scene situation classifiers on synthetic renderer data and
// reports dataset sizes and validation accuracies next to the paper's.
//
// The default is laptop-scale (1200 samples per classifier); -paper-scale
// uses the paper's dataset sizes (Table IV), which takes substantially
// longer on one CPU core.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"hsas/internal/classifier"
	"hsas/internal/obs"
)

func main() {
	n := flag.Int("n", 1200, "samples per classifier dataset")
	epochs := flag.Int("epochs", 0, "training epochs (0 = per-kind default)")
	workers := flag.Int("workers", 1, "data-parallel training goroutines (0 = GOMAXPROCS); trained weights are bit-identical for every value")
	seed := flag.Int64("seed", 1, "dataset and init seed")
	paperScale := flag.Bool("paper-scale", false, "use the paper's Table IV dataset sizes")
	logLevel := flag.String("log-level", "", "enable per-epoch structured logging at this level: debug, info, warn or error")
	metricsOut := flag.String("metrics-out", "", "after training, dump Prometheus text exposition (epoch wall-time, images/sec, accuracies) to this file ('-' for stderr)")
	flag.Parse()

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	var observer *obs.Observer
	var reg *obs.Registry
	if *logLevel != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
		observer = &obs.Observer{Metrics: reg}
		if *logLevel != "" {
			lvl, err := obs.ParseLevel(*logLevel)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -log-level %q: %v\n", *logLevel, err)
				os.Exit(2)
			}
			observer.Log = obs.NewLogger(os.Stderr, lvl)
		}
	}

	fmt.Println("Table IV — situation classifiers")
	fmt.Printf("%-7s %8s %6s %6s %10s %10s %12s %9s\n",
		"kind", "classes", "train", "val", "train acc", "val acc", "paper acc", "time")
	for _, kind := range []classifier.Kind{classifier.Road, classifier.Lane, classifier.Scene} {
		dcfg := classifier.DatasetConfigFor(kind)
		dcfg.N = *n
		dcfg.Seed = *seed
		if *paperScale {
			sizes := classifier.PaperDataset[kind]
			dcfg.N = sizes[0] + sizes[1]
		}
		tcfg := classifier.TrainConfigFor(kind)
		if *epochs > 0 {
			tcfg.Epochs = *epochs
		}
		tcfg.Seed = *seed
		tcfg.Workers = nWorkers

		start := time.Now()
		_, rep, err := classifier.TrainObserved(kind, dcfg, tcfg, observer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "train:", err)
			os.Exit(1)
		}
		fmt.Printf("%-7s %8d %6d %6d %9.2f%% %9.2f%% %11.2f%% %9s\n",
			kind, kind.NumClasses(), rep.TrainN, rep.ValN,
			100*rep.TrainAccuracy, 100*rep.ValAccuracy,
			100*classifier.PaperAccuracy[kind], time.Since(start).Round(time.Second))
	}
	fmt.Println("\nProfiled per-classifier runtime on NVIDIA AGX Xavier: 5.5 ms (Table IV)")

	if *metricsOut != "" {
		if err := reg.WritePrometheusFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "metrics-out:", err)
			os.Exit(1)
		}
	}
}
