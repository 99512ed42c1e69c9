package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	rate := metricDef{name: "a_rate", higher: true, bound: 0.05}
	cost, _ := lookupMetric("bytes_per_read") // lower is better
	fail, _ := lookupMetric("fail_share")
	steady := func(v float64) Metric { return Metric{Value: v, Q1: v * 0.999, Q3: v * 1.001, N: 6} }
	cases := []struct {
		name string
		def  metricDef
		a, b Metric
		want string
	}{
		{"rate up past the bound", rate, steady(100), steady(100 * (1 + rate.bound + 0.02)), verdictBetter},
		{"rate down past the bound", rate, steady(100), steady(100 * (1 - rate.bound - 0.02)), verdictWorse},
		{"rate down inside the bound", rate, steady(100), steady(100 * (1 - rate.bound/2)), verdictWithin},
		{"cost up past the bound", cost, steady(100), steady(100 * (1 + cost.bound + 0.02)), verdictWorse},
		{"cost down past the bound", cost, steady(100), steady(100 * (1 - cost.bound - 0.02)), verdictBetter},
		{"base too spread to tell", cost, Metric{Value: 100, Q1: 95, Q3: 105, N: 6}, steady(200), verdictUnresolved},
		{"candidate too spread to tell", cost, steady(100), Metric{Value: 50, Q1: 45, Q3: 55, N: 6}, verdictUnresolved},
		{"no failures either side", fail, Metric{N: 1}, Metric{N: 1}, verdictWithin},
		{"any rise in failures", fail, Metric{N: 1}, Metric{Value: 1e-6, Q1: 1e-6, Q3: 1e-6, N: 1}, verdictWorse},
	}
	for _, c := range cases {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	doc := func(bytes, fails float64) Document {
		r := &Result{Workload: "serve_http", Metrics: map[string]Metric{}}
		r.set("bytes_per_read", bytes)
		r.set("fail_share", fails)
		r.set("reads_per_s", 14000*21970/bytes) // ungated: never in a row
		quiet := &Result{Workload: "batch_kernels", Metrics: map[string]Metric{}}
		quiet.set("bytes_per_read", 11070)
		return Document{Seed: 1, Seconds: 10, Threads: 2, Workloads: []*Result{quiet, r}}
	}
	dir := t.TempDir()
	write := func(name string, d Document) string {
		path := filepath.Join(dir, name)
		// As a run prints it: the document, then the result lines.
		b, err := json.MarshalIndent(d, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, "\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n"...)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", doc(21970, 0))
	same := write("b.json", doc(22100, 0))
	fat := write("c.json", doc(23000, 0))
	failing := write("d.json", doc(21970, 0.001))

	var out bytes.Buffer
	worse, err := compareFiles(&out, base, same)
	if err != nil || worse {
		t.Fatalf("like against like: worse=%v err=%v\n%s", worse, err, out.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(rows) != 2 || !strings.HasPrefix(rows[0], "batch_kernels") || !strings.HasPrefix(rows[1], "serve_http") {
		t.Errorf("want one row per workload, got:\n%s", out.String())
	}
	// Every ratio is printed with its base.
	if !strings.Contains(rows[1], "bytes_per_read within bound (2.21e+04 / 2.197e+04 = 1.006)") {
		t.Errorf("ratio with its base missing from: %s", rows[1])
	}
	if strings.Contains(rows[0], "fail_share") {
		t.Errorf("batch_kernels has no fail_share in these documents but its row does: %s", rows[0])
	}
	if strings.Contains(out.String(), "reads_per_s") {
		t.Errorf("an ungated metric got a verdict:\n%s", out.String())
	}

	for _, c := range []struct{ cand, row string }{
		{fat, "bytes_per_read worse (2.3e+04 / 2.197e+04 = 1.047)"},
		{failing, "fail_share worse (0.001 vs 0)"},
	} {
		out.Reset()
		worse, err = compareFiles(&out, base, c.cand)
		if err != nil || !worse {
			t.Fatalf("%s: worse=%v err=%v\n%s", c.row, worse, err, out.String())
		}
		if !strings.Contains(out.String(), c.row) {
			t.Errorf("verdict %q missing from: %s", c.row, out.String())
		}
	}
}
