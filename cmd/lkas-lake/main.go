// Command lkas-lake runs fleet-analytics queries over a columnar
// result lake (see internal/lake) offline — the same single-scan
// aggregations lkas-serve exposes under /v1/analytics, without a
// server:
//
//	lkas-lake -dir /var/lib/lkas-lake summary
//	lkas-lake -dir /var/lib/lkas-lake query -group-by situation,case
//	lkas-lake -dir /var/lib/lkas-lake query -campaign c000003 -dedup
//	lkas-lake -dir /var/lib/lkas-lake traces -campaign characterize
//
// query streams one NDJSON GroupStats line per group (pipe into jq);
// summary and traces print a single JSON document. Every subcommand
// reports the scan statistics (segments, rows, bytes) on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hsas/internal/lake"
)

func usage(errOut io.Writer) {
	fmt.Fprintln(errOut, `usage: lkas-lake -dir DIR COMMAND [flags]

commands:
  summary   global rollup of results and traces (one JSON document)
  query     grouped aggregation, one NDJSON line per group
  traces    per-cycle trace summary (gate trips, coasted/degraded cycles)

common flags:
  -dir DIR        lake directory (required)
  -campaign ID    restrict to one campaign's rows

query flags:
  -group-by a,b   group axes: `+strings.Join(lake.Axes, ", ")+`
  -dedup          keep only the first row per content address`)
}

// run executes the CLI against the given streams and returns the
// process exit code (separated from main for testability).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lkas-lake", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	dir := fs.String("dir", "", "lake directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "lkas-lake: -dir is required")
		usage(stderr)
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "lkas-lake: missing command")
		usage(stderr)
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	sub := flag.NewFlagSet("lkas-lake "+cmd, flag.ContinueOnError)
	sub.SetOutput(stderr)
	campaign := sub.String("campaign", "", "restrict to one campaign's rows")
	var groupBy *string
	var dedup *bool
	if cmd == "query" {
		groupBy = sub.String("group-by", "situation", "comma-separated group axes")
		dedup = sub.Bool("dedup", false, "keep only the first row per content address")
	}
	if err := sub.Parse(rest); err != nil {
		return 2
	}
	if sub.NArg() > 0 {
		fmt.Fprintf(stderr, "lkas-lake %s: unexpected arguments: %v\n", cmd, sub.Args())
		return 2
	}

	enc := json.NewEncoder(stdout)
	enc.SetEscapeHTML(false)
	var scan lake.ScanStats
	switch cmd {
	case "summary":
		sum, s, err := lake.Summarize(*dir, *campaign)
		if err != nil {
			fmt.Fprintln(stderr, "lkas-lake:", err)
			return 1
		}
		scan = s
		if err := enc.Encode(sum); err != nil {
			return 1
		}
	case "query":
		q := lake.Query{Campaign: *campaign, Dedup: *dedup}
		if *groupBy != "" {
			q.GroupBy = strings.Split(*groupBy, ",")
		}
		groups, s, err := lake.Aggregate(*dir, q)
		if err != nil {
			fmt.Fprintln(stderr, "lkas-lake:", err)
			return 1
		}
		scan = s
		for i := range groups {
			if err := enc.Encode(groups[i]); err != nil {
				return 1
			}
		}
	case "traces":
		traces, s, err := lake.SummarizeTraces(*dir, *campaign)
		if err != nil {
			fmt.Fprintln(stderr, "lkas-lake:", err)
			return 1
		}
		scan = s
		if err := enc.Encode(traces); err != nil {
			return 1
		}
	default:
		fmt.Fprintf(stderr, "lkas-lake: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	fmt.Fprintf(stderr, "scanned %d segments, %d rows, %d bytes\n",
		scan.Segments, scan.Rows, scan.Bytes)
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
