package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -compare, per workload × end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within bound"
	verdictUnresolved = "unresolved"
)

// verdict judges candidate b against base a for one metric. A side whose own
// interquartile range exceeds the bound cannot resolve a change of the
// bound's size, so the pair is unresolved whichever way the medians lie.
// fail_share has bound 0: any rise is worse.
func verdict(def metricDef, a, b Metric) string {
	if def.bound > 0 && (spreadShare(a) > def.bound || spreadShare(b) > def.bound) {
		return verdictUnresolved
	}
	// change > 0 means b is worse, as a share of the base.
	change := b.Value - a.Value
	if def.higher {
		change = -change
	}
	if a.Value != 0 {
		change /= a.Value
	}
	switch {
	case change > def.bound:
		return verdictWorse
	case change < -def.bound:
		return verdictBetter
	default:
		return verdictWithin
	}
}

// readDocument reads the document that starts a run's standard output; the
// result lines after it are left unread.
func readDocument(path string) (doc Document, err error) {
	f, err := os.Open(path)
	if err != nil {
		return doc, err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints, for the documents of two runs, one row per workload
// and one verdict per end-to-end metric, every ratio with its base. It
// reports whether any verdict is "worse".
func compareFiles(w io.Writer, basePath, candPath string) (worse bool, err error) {
	base, err := readDocument(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readDocument(candPath)
	if err != nil {
		return false, err
	}
	if base.Seed != cand.Seed || base.Seconds != cand.Seconds || base.Threads != cand.Threads || base.Quick != cand.Quick {
		fmt.Fprintf(w, "warning: runs differ in settings (seed %d vs %d, seconds %g vs %g, threads %d vs %d): compare like with like\n",
			base.Seed, cand.Seed, base.Seconds, cand.Seconds, base.Threads, cand.Threads)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, a := range base.Workloads {
		var b *Result
		for _, r := range cand.Workloads {
			if r.Workload == a.Workload {
				b = r
			}
		}
		if b == nil {
			return false, fmt.Errorf("%s: workload %s missing", candPath, a.Workload)
		}
		fmt.Fprintf(tw, "%s", a.Workload)
		for _, def := range catalogue {
			if def.tier != tierEndToEnd {
				continue
			}
			ma, oka := a.Metrics[def.name]
			mb, okb := b.Metrics[def.name]
			if !oka && !okb {
				continue // the metric does not apply to this workload
			}
			if oka != okb {
				return false, fmt.Errorf("%s: metric %s is in only one of the documents", a.Workload, def.name)
			}
			v := verdict(def, ma, mb)
			worse = worse || v == verdictWorse
			fmt.Fprintf(tw, "\t%s %s", def.name, v)
			if ma.Value != 0 {
				fmt.Fprintf(tw, " (%.4g / %.4g = %.3f)", mb.Value, ma.Value, mb.Value/ma.Value)
			} else {
				fmt.Fprintf(tw, " (%.4g vs %.4g)", mb.Value, ma.Value)
			}
		}
		fmt.Fprintln(tw)
	}
	return worse, tw.Flush()
}
